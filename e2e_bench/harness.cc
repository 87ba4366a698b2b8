#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "common/logging.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "service/result_cache.h"
#include "sql/formatter.h"
#include "truth.h"
#include "workload/query_gen.h"
#include "workload/tpcd_skew.h"

namespace aqpp {
namespace e2e {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kList = {
      {"setup_s", "s"},
      {"query_mean_ms", "ms"},
      {"query_p95_ms", "ms"},
      {"qps", "1/s"},
      {"median_rel_error", "ratio"},
      {"ci_coverage", "ratio"},
      {"median_ci_rel_halfwidth", "ratio"},
      {"precomputed_mb", "MB"},
      {"peak_rss_mb", "MB"},
  };
  return kList;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> kList = {
      {"service.ping_ms", "ms"},
      {"sql.parse_bind_ms", "ms"},
      {"service.canonicalize_ms", "ms"},
      {"service.admission_ms", "ms"},
      {"core.execute_ms", "ms"},
      {"core.identify_ms", "ms"},
      {"cube.probe_ms", "ms"},
      {"kernels.sample_mask_ms", "ms"},
      {"synopsis.estimate_ms", "ms"},
      {"core.candidates_per_query", "count"},
      {"core.used_pre_frac", "ratio"},
      {"synopsis.zero_width_miss_frac", "ratio"},
      {"service.cache_hit_frac", "ratio"},
      {"service.batch_fused_frac", "ratio"},
      {"sampling.draw_s", "s"},
      {"core.precompute_s", "s"},
      {"cube.build_s", "s"},
      {"shard.scatter_ms", "ms"},
      {"shard.partial_max_ms", "ms"},
      {"shard.fanout_overhead_ms", "ms"},
      {"shard.connect_ms", "ms"},
      {"shard.merge_ms", "ms"},
      {"shard.coordinator_query_ms", "ms"},
      {"storage.open_ms", "ms"},
      {"storage.decode_mb_per_s", "MB/s"},
      {"shard.build_from_slab_s", "s"},
      {"service.ingest_rtt_ms", "ms"},
      {"core.append_ms", "ms"},
      {"core.absorb_ms", "ms"},
      {"core.absorb_cycles", "count"},
      {"core.delta_rows_p50", "rows"},
      {"bench.ingest_rows_per_s", "rows/s"},
      {"bench.replay_rtt_ms", "ms"},
      {"bench.unattributed_frac", "ratio"},
  };
  return kList;
}

namespace {

const MetricSpec* FindSpec(const std::string& name) {
  for (const auto* list : {&EndToEndMetrics(), &LayerMetrics()}) {
    for (const MetricSpec& spec : *list) {
      if (name == spec.name) return &spec;
    }
  }
  return nullptr;
}

}  // namespace

void RunReport::Set(const std::string& name, double value) {
  AQPP_CHECK(FindSpec(name) != nullptr) << "unknown metric " << name;
  values_[name] = value;
}

void RunReport::Attempt(bool failed) {
  ++attempted_;
  if (failed) ++failed_;
}

void RunReport::Note(const std::string& key, double value) {
  notes_[key] = value;
}

void RunReport::Violation(const std::string& what) {
  // The first few are enough to debug; the count tells the rest.
  if (violations_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++violations_;
}

Json RunReport::ResultLine(bool trace) {
  Json metrics = Json::Object();
  for (const MetricSpec& spec : trace ? LayerMetrics() : EndToEndMetrics()) {
    auto it = values_.find(spec.name);
    if (it == values_.end() && !trace) {
      Violation(std::string("end-to-end metric not measured: ") + spec.name);
    }
    Json m = Json::Object();
    m.Set("value", Json::Number(it == values_.end() ? 0.0 : it->second));
    m.Set("unit", Json::String(spec.unit));
    metrics.Set(spec.name, std::move(m));
  }
  Json line = Json::Object();
  line.Set("correct", Json::Bool(correct()));
  line.Set("attempted", Json::Number(static_cast<double>(attempted_)));
  line.Set("failed", Json::Number(static_cast<double>(failed_)));
  line.Set("metrics", std::move(metrics));
  return line;
}

std::string RunReport::Describe(bool trace) const {
  std::ostringstream out;
  for (const auto& [key, value] : notes_) out << "  (" << key << " " << value << ")\n";
  for (const MetricSpec& spec : trace ? LayerMetrics() : EndToEndMetrics()) {
    auto it = values_.find(spec.name);
    char buf[160];
    if (it == values_.end()) {
      std::snprintf(buf, sizeof(buf), "  %-28s %14s\n", spec.name,
                    "(not on path)");
    } else {
      std::snprintf(buf, sizeof(buf), "  %-28s %14.6g %s\n", spec.name,
                    it->second, spec.unit);
    }
    out << buf;
  }
  return out.str();
}

QueryTemplate Table1Template() {
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = kExtendedPrice;
  tmpl.condition_columns = {kOrderKey, kSuppKey};
  return tmpl;
}

Result<std::shared_ptr<Table>> MakeTpcdSkew(size_t rows) {
  return GenerateTpcdSkew({.rows = rows, .skew = 1.0, .seed = 7});
}

Result<std::vector<RangeQuery>> MakeQueryPool(const Table& table,
                                              const QueryTemplate& tmpl,
                                              size_t count, uint64_t seed) {
  constexpr size_t kGenerators = 4;
  const size_t per_generator = (count + kGenerators - 1) / kGenerators;
  std::vector<Result<std::vector<RangeQuery>>> streams(
      kGenerators, Status::Internal("not generated"));
  std::vector<std::thread> threads;
  for (size_t g = 0; g < kGenerators; ++g) {
    threads.emplace_back([&, g] {
      QueryGenerator gen(&table, tmpl, {}, seed * 1'000'003 + g);
      streams[g] = gen.GenerateMany(per_generator);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& s : streams) AQPP_RETURN_NOT_OK(s.status());

  QueryCanonicalizer canonicalizer(&table);
  std::unordered_set<std::string> seen;
  std::vector<RangeQuery> pool;
  pool.reserve(count);
  for (size_t i = 0; i < per_generator && pool.size() < count; ++i) {
    for (size_t g = 0; g < kGenerators && pool.size() < count; ++g) {
      const RangeQuery& q = (*streams[g])[i];
      if (seen.insert(canonicalizer.Canonicalize(q).key).second) {
        pool.push_back(q);
      }
    }
  }
  return pool;
}

Result<std::vector<std::string>> ToSql(const std::vector<RangeQuery>& queries,
                                       const Table& table) {
  std::vector<std::string> out;
  out.reserve(queries.size());
  for (const RangeQuery& q : queries) {
    AQPP_ASSIGN_OR_RETURN(std::string sql, FormatQuery(q, table, kTableName));
    out.push_back(std::move(sql));
  }
  return out;
}

Result<std::vector<double>> ExactTruths(const Table& table,
                                        const std::vector<RangeQuery>& queries) {
  const QueryTemplate tmpl = Table1Template();
  AQPP_ASSIGN_OR_RETURN(RangeTruth truth,
                        RangeTruth::Build(table, tmpl.condition_columns[0],
                                          tmpl.condition_columns[1],
                                          tmpl.agg_column));
  AQPP_ASSIGN_OR_RETURN(std::vector<double> answers, truth.Answers(queries));
  // The sweep is the benchmark's own code; pin it to the library's exact
  // scan on a few queries so a checker bug cannot pass as a program bug.
  ExactExecutor exact(&table);
  for (size_t i = 0; i < std::min<size_t>(16, queries.size()); ++i) {
    AQPP_ASSIGN_OR_RETURN(double scanned, exact.Execute(queries[i]));
    if (RelativeError(answers[i], scanned) > kExactRelTolerance) {
      return Status::Internal("truth sweep disagrees with ExactExecutor on " +
                              queries[i].ToString(table.schema()));
    }
  }
  return answers;
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

TimedReply TimedQuery(ServiceClient& client, size_t query,
                      const std::string& sql, Clock::time_point window_start) {
  TimedReply out;
  out.query = query;
  const Clock::time_point start = Clock::now();
  out.reply = client.Query(sql);
  const Clock::time_point done = Clock::now();
  out.latency_ms = MsBetween(start, done);
  out.done_s = std::chrono::duration<double>(done - window_start).count();
  return out;
}

std::vector<AnswerAccuracy> CheckReplies(
    const std::vector<TimedReply>& replies,
    const std::function<double(size_t)>& truth_of, RunReport* report) {
  std::vector<AnswerAccuracy> out;
  out.reserve(replies.size());
  std::vector<size_t> query_of;
  for (size_t i = 0; i < replies.size(); ++i) {
    const TimedReply& r = replies[i];
    report->Attempt(!r.reply.ok());
    if (!r.reply.ok()) {
      report->Violation("query " + std::to_string(r.query) + " failed: " +
                        r.reply.status().ToString());
      continue;
    }
    const QueryReply& reply = *r.reply;
    if (reply.cache_hit) {
      report->Violation("query " + std::to_string(r.query) +
                        " hit the result cache (pool keys are distinct)");
    }
    out.push_back({reply.estimate, reply.lo, reply.hi, reply.half_width,
                   truth_of(i)});
    query_of.push_back(r.query);
  }
  const double floor = SummarizeAccuracy(out).median_ci_rel_halfwidth;
  size_t zero_width_misses = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    const AnswerAccuracy& a = out[i];
    if (ZeroWidthMiss(a)) ++zero_width_misses;
    if (!PlausibleAnswer(a, floor)) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "query %zu: estimate %.17g [%.17g, %.17g] vs truth %.17g",
                    query_of[i], a.estimate, a.lo, a.hi, a.truth);
      report->Violation(buf);
    }
  }
  report->Set("synopsis.zero_width_miss_frac",
              out.empty() ? 0.0
                          : static_cast<double>(zero_width_misses) / out.size());
  return out;
}

StealMonitor::StealMonitor() : start_(Clock::now()) {
  samples_.push_back(Read());
  sampler_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return stopped_; })) {
      samples_.push_back(Read());
    }
  });
}

StealMonitor::~StealMonitor() { Stop(); }

void StealMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  cv_.notify_all();
  sampler_.join();
  samples_.push_back(Read());
}

StealMonitor::Sample StealMonitor::Read() const {
  Sample t;
  t.at_s = SecondsSince(start_);
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 10; ++field) {
    uint64_t ticks = 0;
    if (!(stat >> ticks)) break;
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

QuietIntervals StealMonitor::Intervals() const {
  std::vector<double> bounds;
  std::vector<uint64_t> steal;
  for (size_t i = 0; i < samples_.size(); ++i) {
    bounds.push_back(samples_[i].at_s);
    if (i > 0) steal.push_back(samples_[i].steal - samples_[i - 1].steal);
  }
  return QuietIntervals(std::move(bounds), std::move(steal));
}

double StealMonitor::StealShare() const {
  const uint64_t total = samples_.back().total - samples_.front().total;
  return total == 0 ? 0.0
                    : static_cast<double>(samples_.back().steal -
                                          samples_.front().steal) / total;
}

void SetLatencyMetrics(const std::vector<TimedReply>& replies,
                       const StealMonitor& window, RunReport* report) {
  const QuietIntervals quiet = window.Intervals();
  std::vector<double> kept;
  size_t answered = 0;
  for (const TimedReply& r : replies) {
    if (!r.reply.ok()) continue;
    ++answered;
    if (quiet.Kept(r.done_s)) kept.push_back(r.latency_ms);
  }
  if (!SupportsPercentile(kept.size(), 0.95)) {
    report->Violation("only " + std::to_string(kept.size()) +
                      " answers completed in the window's quieter half: p95 "
                      "needs ten samples beyond it");
  }
  const double window_s = quiet.WindowSeconds();
  const double clean_frac = window_s > 0 ? quiet.CleanSeconds() / window_s : 0;
  std::fprintf(stderr,
               "latency over the %zu of %zu answers completed in the quieter "
               "half of the window (%.0f%% of it had no steal); highest "
               "percentile they support: p%g\n",
               kept.size(), answered, 100 * clean_frac,
               100 * HighestSupportedPercentile(kept.size()));
  report->Set("query_mean_ms", TrimmedMean(kept));
  report->Set("query_p95_ms", Percentile(kept, 0.95));
  report->Note("p50_ms", Percentile(kept, 0.5));
  report->Set("qps", quiet.KeptSeconds() > 0 ? kept.size() / quiet.KeptSeconds()
                                             : 0.0);
  report->Note("steal_frac", window.StealShare());
  report->Note("clean_frac", clean_frac);
  report->Note("kept_frac", answered == 0 ? 0.0 : double(kept.size()) / answered);
}

void SetAccuracyMetrics(const std::vector<AnswerAccuracy>& answers,
                        RunReport* report) {
  const AccuracySummary s = SummarizeAccuracy(answers);
  std::fprintf(stderr, "accuracy over %zu answers\n", s.answers);
  report->Set("median_rel_error", s.median_rel_error);
  report->Set("ci_coverage", s.ci_coverage);
  report->Set("median_ci_rel_halfwidth", s.median_ci_rel_halfwidth);
}

double PeakRssMb(const std::string& status_path) {
  std::ifstream status(status_path);
  std::string line;
  while (std::getline(status, line)) {
    unsigned long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

Json MachineBlock(const RunConfig& config) {
  Json m = Json::Object();
  m.Set("nproc", Json::Number(std::thread::hardware_concurrency()));
  m.Set("cpu_model", Json::String(CpuModel()));
  m.Set("compiler", Json::String(std::string("gcc ") + __VERSION__));
  m.Set("build_type", Json::String(E2E_BUILD_TYPE));
  m.Set("cxx_flags", Json::String(E2E_CXX_FLAGS));
  m.Set("kernel_arch", Json::String(E2E_KERNEL_ARCH));
#ifdef AQPP_FAILPOINTS_ENABLED
  m.Set("failpoints", Json::Bool(true));
#else
  m.Set("failpoints", Json::Bool(false));
#endif
  m.Set("obs", Json::Bool(obs::kCompiledIn));
  m.Set("git_sha", Json::String(config.git_sha));
  m.Set("source_hash", Json::String(config.source_hash));
  return m;
}

Status EmitResult(const RunConfig& config, RunReport* report) {
  Json line = report->ResultLine(config.trace);
  Json machine = MachineBlock(config);
  std::fprintf(stderr, "%s seed=%llu trace=%d: correct=%s attempted=%llu "
               "failed=%llu\n%s",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.trace,
               report->correct() ? "true" : "false",
               static_cast<unsigned long long>(report->attempted()),
               static_cast<unsigned long long>(report->failed()),
               report->Describe(config.trace).c_str());

  Json file = Json::Object();
  file.Set("workload", Json::String(config.workload));
  file.Set("seed", Json::Number(static_cast<double>(config.seed)));
  file.Set("seconds", Json::Number(config.seconds));
  file.Set("trace", Json::Bool(config.trace));
  file.Set("machine", machine);
  Json notes = Json::Object();
  for (const auto& [key, value] : report->notes()) notes.Set(key, Json::Number(value));
  file.Set("notes", notes);
  file.Set("result", line);
  const std::string dir = config.work_dir + "/results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  const std::string path = dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << file.Dump() << "\n";
  if (!out) return Status::IOError("cannot write " + path);

  std::printf("machine %s\nnotes %s\n%s\n", machine.Dump().c_str(),
              notes.Dump().c_str(), line.Dump().c_str());
  std::fflush(stdout);
  return Status::OK();
}

}  // namespace e2e
}  // namespace aqpp
