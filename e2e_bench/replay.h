// Traced replay of single-engine queries: each request is sent once over
// TCP to a server that has not seen it, then run again through the public
// call of each layer in-process, every call timed as one span:
//
//   query.tcp                    ServiceClient::Query (the root)
//   service.ping                 ServiceClient::Ping on the same connection
//   sql.parse_bind               ParseAndBind
//   service.execute              QueryService::Execute (cold service)
//     service.canonicalize       QueryCanonicalizer::Canonicalize
//     core.execute               AqppEngine::Execute, canonical seed
//       core.identify            AggregateIdentifier::Identify
//         cube.probe             PrefixCube::BoxValue of the identified box
//       kernels.sample_mask      SampleEstimator::Mask
//       synopsis.estimate        SampleEstimator::EstimateWithPreMasked
//
// service.admission is service.execute's self time (minus canonicalize and
// core.execute). The blocking path of a round trip is ping + parse_bind +
// service.execute; bench.unattributed_frac is what those leave of the
// median round trip.

#ifndef AQPP_E2E_BENCH_REPLAY_H_
#define AQPP_E2E_BENCH_REPLAY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/identification.h"
#include "core/ingest.h"
#include "harness.h"
#include "service/client.h"
#include "service/result_cache.h"
#include "service/service.h"
#include "spans.h"
#include "storage/table.h"

namespace aqpp {
namespace e2e {

class EngineReplay {
 public:
  // `engine` must be prepared; `ingest` (nullable) is the manager the served
  // path folds deltas from. Attach the served QueryService to `ingest`
  // after constructing this: the in-process service attaches first so the
  // served one keeps the commit observer.
  static Result<std::unique_ptr<EngineReplay>> Create(AqppEngine* engine,
                                                      const Catalog* catalog,
                                                      IngestManager* ingest);

  // Replays one request. `client` must be connected to a server over the
  // same engine whose cache has not seen `sql`. The TCP reply must equal the
  // in-process engine answer (plus the exact delta fold) bit for bit.
  void Replay(uint64_t request, const std::string& sql, ServiceClient& client,
              SpanRecorder* spans, RunReport* report);

  // Rebuilds the replay's identifier and estimator over the engine's current
  // sample and cube; call after the engine publishes new state (an absorb).
  void Refresh();

  // Medians of every span above plus identification counts and
  // bench.unattributed_frac.
  void SetMetrics(const SpanRecorder& spans, RunReport* report) const;

 private:
  EngineReplay() = default;

  AqppEngine* engine_ = nullptr;
  const Catalog* catalog_ = nullptr;
  IngestManager* ingest_ = nullptr;
  std::unique_ptr<QueryService> service_;
  uint64_t session_ = 0;
  std::unique_ptr<QueryCanonicalizer> canonicalizer_;
  std::unique_ptr<AggregateIdentifier> identifier_;
  std::unique_ptr<MeasureCache> measure_cache_;
  std::unique_ptr<SampleEstimator> estimator_;
  std::vector<double> admission_ms_;
  size_t candidates_ = 0;
  size_t used_pre_ = 0;
  size_t replayed_ = 0;
};

// Times the three stages of Prepare on `table` with the engine's options:
// CreateUniformSample (sampling.draw_s), Precomputer::Precompute
// (core.precompute_s) and PrefixCube::Build over the engine's scheme
// (cube.build_s); median of `reps`.
Status TimePrepareStages(const Table& table, const AqppEngine& engine,
                         int reps, RunReport* report);

}  // namespace e2e
}  // namespace aqpp

#endif  // AQPP_E2E_BENCH_REPLAY_H_
