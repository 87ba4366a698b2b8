// table1_sum and table1_avg: one AqppEngine behind QueryService +
// ServiceServer, one closed-loop client, bench_table1's parameters, one
// aggregate per workload.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "replay.h"
#include "service/client.h"
#include "workloads.h"

namespace aqpp {
namespace e2e {

namespace {

constexpr size_t kRows = 1'000'000;
constexpr int kSetupReps = 9;
constexpr int kPrepareStageReps = 3;

struct Table1Shape {
  AggregateFunction func;
  // Pool size per second of window: well above today's throughput, so a
  // faster program still gets distinct queries for the whole window.
  double pool_qps;
  // Accuracy metrics cover exactly this many first answers, so they are a
  // pure function of seed and code; the window runs until they are in.
  size_t accuracy_answers;
  size_t replayed;
};
constexpr Table1Shape kShapes[] = {
    {AggregateFunction::kSum, 1000, 4000, 300},
    {AggregateFunction::kAvg, 150, 1800, 60},
};

}  // namespace

EngineOptions Table1EngineOptions() {
  EngineOptions options;
  options.sample_rate = 0.02;
  options.cube_budget = 50'000;
  options.seed = 33;
  return options;
}

Result<std::shared_ptr<AqppEngine>> PrepareEngine(std::shared_ptr<Table> table,
                                                  const EngineOptions& options) {
  AQPP_ASSIGN_OR_RETURN(std::unique_ptr<AqppEngine> engine,
                        AqppEngine::Create(std::move(table), options));
  AQPP_RETURN_NOT_OK(engine->Prepare(Table1Template()));
  return std::shared_ptr<AqppEngine>(std::move(engine));
}

Result<std::unique_ptr<ServedEngine>> ServeEngine(
    std::shared_ptr<AqppEngine> engine, const Catalog* catalog,
    const std::optional<IngestOptions>& ingest,
    const std::function<Status(ServedEngine*)>& before_serving) {
  auto served = std::make_unique<ServedEngine>();
  served->engine = std::move(engine);
  if (ingest.has_value()) {
    served->ingest =
        std::make_unique<IngestManager>(served->engine.get(), *ingest);
  }
  if (before_serving) AQPP_RETURN_NOT_OK(before_serving(served.get()));
  served->service =
      std::make_unique<QueryService>(EngineRef(served->engine.get()));
  if (served->ingest != nullptr) {
    served->service->AttachIngest(served->ingest.get());
    AQPP_RETURN_NOT_OK(served->ingest->Start());
  }
  served->server =
      std::make_unique<ServiceServer>(served->service.get(), catalog);
  AQPP_RETURN_NOT_OK(served->server->Start());
  return served;
}

std::vector<TimedReply> ClosedLoop(ServiceClient& client,
                                   const std::vector<std::string>& sqls,
                                   double seconds, size_t min_answers,
                                   const std::function<void()>& at_min_answers,
                                   StealMonitor* window, RunReport* report) {
  std::vector<TimedReply> replies;
  const Clock::time_point start = window->start();
  size_t i = 0;
  for (; i < sqls.size(); ++i) {
    if (SecondsSince(start) >= seconds && replies.size() >= min_answers) break;
    replies.push_back(TimedQuery(client, i, sqls[i], start));
    if (replies.size() == min_answers) at_min_answers();
  }
  window->Stop();
  report->Note("window_s", SecondsSince(start));
  if (i == sqls.size()) {
    std::fprintf(stderr,
                 "note: query pool (%zu) ran out after %.2f s; the window "
                 "ends there\n",
                 sqls.size(), SecondsSince(start));
  }
  return replies;
}

void SetServiceStatMetrics(const QueryService& service, RunReport* report) {
  const ServiceStats stats = service.stats();
  report->Set("service.cache_hit_frac", stats.cache_hit_rate);
  report->Set("service.batch_fused_frac",
              stats.admission.admitted == 0
                  ? 0.0
                  : static_cast<double>(stats.admission.batch_members) /
                        static_cast<double>(stats.admission.admitted));
}

Status RunTable1(const RunConfig& config, AggregateFunction func,
                 RunReport* report) {
  const Table1Shape* found = nullptr;
  for (const Table1Shape& s : kShapes) {
    if (s.func == func) found = &s;
  }
  if (found == nullptr) return Status::InvalidArgument("no Table-1 workload");
  const Table1Shape& shape = *found;
  AQPP_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, MakeTpcdSkew(kRows));
  Catalog catalog;
  AQPP_RETURN_NOT_OK(catalog.Register(kTableName, table));
  const size_t pool_size = std::max(
      static_cast<size_t>(std::ceil(config.seconds * shape.pool_qps)),
      shape.accuracy_answers);
  AQPP_ASSIGN_OR_RETURN(
      std::vector<RangeQuery> queries,
      MakeQueryPool(*table, Table1Template(), pool_size, config.seed));
  for (RangeQuery& q : queries) q.func = func;
  AQPP_ASSIGN_OR_RETURN(std::vector<std::string> sqls, ToSql(queries, *table));
  AQPP_ASSIGN_OR_RETURN(std::vector<double> truths, ExactTruths(*table, queries));

  // Set-up: Prepare + service + server, until the first query can be
  // answered. Repeated; setup_s is the median.
  std::unique_ptr<ServedEngine> served;
  std::vector<double> setups;
  for (int r = 0; r < (config.trace ? 1 : kSetupReps); ++r) {
    served.reset();
    const Clock::time_point start = Clock::now();
    AQPP_ASSIGN_OR_RETURN(auto engine,
                          PrepareEngine(table, Table1EngineOptions()));
    AQPP_ASSIGN_OR_RETURN(served,
                          ServeEngine(std::move(engine), &catalog, std::nullopt));
    setups.push_back(SecondsSince(start));
  }
  report->Set("setup_s", Percentile(setups, 0.5));
  report->Set("precomputed_mb",
              served->engine->prepare_stats().total_bytes() / double(1 << 20));

  AQPP_ASSIGN_OR_RETURN(ServiceClient client,
                        ServiceClient::Connect("127.0.0.1", served->server->port()));
  StealMonitor window;
  std::vector<TimedReply> replies = ClosedLoop(
      client, sqls, config.seconds, shape.accuracy_answers,
      [&] { report->Set("peak_rss_mb", PeakRssMb()); }, &window, report);
  std::vector<AnswerAccuracy> answers = CheckReplies(
      replies, [&](size_t i) { return truths[replies[i].query]; }, report);
  if (answers.size() > shape.accuracy_answers) {
    answers.resize(shape.accuracy_answers);
  }
  SetLatencyMetrics(replies, window, report);
  SetAccuracyMetrics(answers, report);
  if (!config.trace) return Status::OK();

  // ---- Traced run: per-layer numbers -------------------------------------
  SetServiceStatMetrics(*served->service, report);
  AQPP_RETURN_NOT_OK(
      TimePrepareStages(*table, *served->engine, kPrepareStageReps, report));
  // A fresh service + server over the same engine (its cache has not seen
  // the replayed queries) and a cold in-process service inside the replay.
  AQPP_ASSIGN_OR_RETURN(auto replay,
                        EngineReplay::Create(served->engine.get(), &catalog,
                                             nullptr));
  AQPP_ASSIGN_OR_RETURN(auto replay_served,
                        ServeEngine(served->engine, &catalog, std::nullopt));
  AQPP_ASSIGN_OR_RETURN(
      ServiceClient replay_client,
      ServiceClient::Connect("127.0.0.1", replay_served->server->port()));
  SpanRecorder spans;
  for (size_t i = 0; i < std::min(shape.replayed, sqls.size()); ++i) {
    replay->Replay(i, sqls[i], replay_client, &spans, report);
  }
  replay->SetMetrics(spans, report);
  return spans.WriteJsonLines(config.work_dir + "/results/" + config.workload +
                              "-seed" + std::to_string(config.seed) +
                              "-spans.jsonl");
}

}  // namespace e2e
}  // namespace aqpp
