// Shared machinery of the end-to-end benchmark: run configuration, the
// metric lists (the same names BENCHMARK.json declares), the run report and
// its one-line JSON result, query pools, answer checks against exact truth,
// and the machine block.

#ifndef AQPP_E2E_BENCH_HARNESS_H_
#define AQPP_E2E_BENCH_HARNESS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "common/status.h"
#include "core/engine.h"
#include "json.h"
#include "service/client.h"
#include "storage/table.h"

namespace aqpp {
namespace e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  // Traced run: replay the workload's inputs through each layer and report
  // the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  // Directory for the run's own files (slabs, spans, results).
  std::string work_dir = ".";
  // Provenance the wrapper passes in (the checkout may not be a git tree).
  std::string git_sha = "unknown";
  std::string source_hash = "unknown";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};
// Reported with --trace 0.
const std::vector<MetricSpec>& EndToEndMetrics();
// Reported with --trace 1. A layer a workload does not reach reads 0.
const std::vector<MetricSpec>& LayerMetrics();

class RunReport {
 public:
  // Sets a metric from either list (unknown names abort: a typo would
  // silently drop a metric).
  void Set(const std::string& name, double value);
  // Counts one request against the workload; `failed` = error or refusal.
  void Attempt(bool failed);
  // Records an answer-check violation; the run then reports correct=false.
  void Violation(const std::string& what);
  // A diagnostic written to the result file and stderr, not the result line.
  void Note(const std::string& key, double value);

  bool correct() const { return violations_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, double>& notes() const { return notes_; }

  // {"correct", "attempted", "failed", "metrics"} for the mode's list. An
  // end-to-end metric the workload did not set is a harness bug and makes
  // the run incorrect.
  Json ResultLine(bool trace);
  // Human-readable listing for stderr.
  std::string Describe(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, double> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t violations_ = 0;
};

// ---- Inputs -----------------------------------------------------------------

// The Table-1 template: SUM(l_extendedprice) over [l_orderkey, l_suppkey].
QueryTemplate Table1Template();
constexpr size_t kOrderKey = 0;
constexpr size_t kSuppKey = 2;
constexpr size_t kExtendedPrice = 10;
constexpr const char* kTableName = "lineitem";

// TPCD-Skew (z = 1) with a fixed data seed: the data is the same for every
// run; --seed varies the queries (and ingest batches).
Result<std::shared_ptr<Table>> MakeTpcdSkew(size_t rows);

// `count` queries from QueryGenerator (0.5%-5% selectivity), distinct by
// service canonical key so the result cache can never hit. Several
// generators run in parallel, seeded from `seed`; the order is fixed by the
// seed alone.
Result<std::vector<RangeQuery>> MakeQueryPool(const Table& table,
                                              const QueryTemplate& tmpl,
                                              size_t count, uint64_t seed);
Result<std::vector<std::string>> ToSql(const std::vector<RangeQuery>& queries,
                                       const Table& table);

// Exact truth of each query (benchmark-side sweep), cross-checked on a few
// queries against the engine library's ExactExecutor.
Result<std::vector<double>> ExactTruths(const Table& table,
                                        const std::vector<RangeQuery>& queries);

// ---- Measurement --------------------------------------------------------------

using Clock = std::chrono::steady_clock;
double MsBetween(Clock::time_point a, Clock::time_point b);
double SecondsSince(Clock::time_point t);

// One closed-loop request: its round trip, when it completed (seconds
// from the window's start) and what came back.
struct TimedReply {
  size_t query = 0;  // index into the workload's pool
  double latency_ms = 0;
  double done_s = 0;
  Result<QueryReply> reply = Status::Internal("not sent");
};
TimedReply TimedQuery(ServiceClient& client, size_t query,
                      const std::string& sql, Clock::time_point window_start);

// Checks every OK reply against its truth (PlausibleAnswer) and that no
// reply was a cache hit; counts each request as attempted/failed. Returns
// the accuracy tuples of the OK replies, in order. `truth_of(i)` is the
// exact answer reply i should approximate.
std::vector<AnswerAccuracy> CheckReplies(
    const std::vector<TimedReply>& replies,
    const std::function<double(size_t)>& truth_of, RunReport* report);

// Host CPU taken by other guests: the steal column of /proc/stat, sampled
// every 100 ms by a sampler thread from the start of a measured window to
// Stop(). SetLatencyMetrics keeps the replies that completed in the quieter
// half of the window (QuietIntervals).
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  Clock::time_point start() const { return start_; }
  // Ends the window (idempotent).
  void Stop();
  // The window's 100 ms intervals and their steal. Valid after Stop().
  QuietIntervals Intervals() const;
  // Share of all CPU time stolen over the window.
  double StealShare() const;

 private:
  struct Sample {
    double at_s = 0;
    uint64_t total = 0;
    uint64_t steal = 0;
  };
  Sample Read() const;

  const Clock::time_point start_;
  std::vector<Sample> samples_;  // written by the sampler until Stop()
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread sampler_;
};

// query_mean_ms / query_p95_ms / qps from the OK replies that completed in
// the window's quieter half: the trimmed mean and the p95 of their
// latencies, and their count per kept second. Fewer than 200 such replies
// (p95 needs ten beyond it) is a violation. Notes their median (p50_ms),
// the steal share, the share of the window with no steal at all
// (clean_frac) and the share of replies kept.
void SetLatencyMetrics(const std::vector<TimedReply>& replies,
                       const StealMonitor& window, RunReport* report);

// median_rel_error / ci_coverage / median_ci_rel_halfwidth.
void SetAccuracyMetrics(const std::vector<AnswerAccuracy>& answers,
                        RunReport* report);

// VmHWM from a procfs status file, MB (0 when unreadable).
double PeakRssMb(const std::string& status_path = "/proc/self/status");

// Bit-for-bit equality (distinguishes -0.0 and NaN payloads).
bool SameBits(double a, double b);

// nproc, CPU model, compiler, build type/flags, kernel arch, failpoints and
// obs compiled in, git sha and source-tree hash.
Json MachineBlock(const RunConfig& config);

// Writes `<work_dir>/results/<workload>-seed<n>-trace<t>.json` (result line,
// machine block, notes, run parameters) and prints the machine block, the
// notes and then the result line as the last line of stdout.
Status EmitResult(const RunConfig& config, RunReport* report);

}  // namespace e2e
}  // namespace aqpp

#endif  // AQPP_E2E_BENCH_HARNESS_H_
