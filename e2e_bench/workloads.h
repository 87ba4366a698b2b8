// The workloads (see README.md for why each exists and which layers it
// reaches or skips) and the single-engine serving stack two of them share.

#ifndef AQPP_E2E_BENCH_WORKLOADS_H_
#define AQPP_E2E_BENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/ingest.h"
#include "harness.h"
#include "service/server.h"
#include "service/service.h"

namespace aqpp {
namespace e2e {

Status RunTable1(const RunConfig& config, AggregateFunction func,
                 RunReport* report);
Status RunShard4(const RunConfig& config, RunReport* report);
Status RunIngest(const RunConfig& config, RunReport* report);

// bench_table1's engine parameters: 2% uniform sample, k = 50 000.
EngineOptions Table1EngineOptions();

// Create + Prepare(Table1Template()).
Result<std::shared_ptr<AqppEngine>> PrepareEngine(std::shared_ptr<Table> table,
                                                  const EngineOptions& options);

// aqppd's wiring: QueryService (+ IngestManager when `ingest` is set, as
// `aqppd --ingest` attaches it) behind a ServiceServer on an ephemeral
// loopback port. Members are declared in dependency order, so destruction
// stops the server first and the engine last.
struct ServedEngine {
  std::shared_ptr<AqppEngine> engine;
  std::unique_ptr<IngestManager> ingest;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<ServiceServer> server;
};
// `before_serving`, when set, runs after the ingest manager exists and
// before the served QueryService attaches to it (the replay's in-process
// service attaches there, leaving the commit observer with the served one).
Result<std::unique_ptr<ServedEngine>> ServeEngine(
    std::shared_ptr<AqppEngine> engine, const Catalog* catalog,
    const std::optional<IngestOptions>& ingest,
    const std::function<Status(ServedEngine*)>& before_serving = nullptr);

// One client, closed loop: sends sqls[i], waits for the reply, sends the
// next, until `seconds` have passed and at least `min_answers` came back,
// or the list runs out (logged: the pool bounds the window).
// `at_min_answers` runs once, between requests, when the min_answers-th
// reply is in. The window starts at `window`'s start and stops it.
std::vector<TimedReply> ClosedLoop(ServiceClient& client,
                                   const std::vector<std::string>& sqls,
                                   double seconds, size_t min_answers,
                                   const std::function<void()>& at_min_answers,
                                   StealMonitor* window, RunReport* report);

// The service's own guards over the measured window: cache hit share and
// the share of admitted queries that ran fused in a multi-member batch.
void SetServiceStatMetrics(const QueryService& service, RunReport* report);

}  // namespace e2e
}  // namespace aqpp

#endif  // AQPP_E2E_BENCH_WORKLOADS_H_
