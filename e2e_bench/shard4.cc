// shard4_sample: a 2M-row table packed into four extent slabs, four
// aqpp-shardd worker processes (ShardWorker::BuildFromSlab + WorkerServer at
// the daemon's defaults), and a ShardCoordinator in its default sample merge
// mode behind a CoordinatorServer; one closed-loop client sends Table-1 SUM
// queries.
//
// Workers run as the deployed daemon, one process each, rather than as four
// servers in this process: WorkerServer keeps every finished connection
// thread until Stop(), and the coordinator opens one connection per
// PARTIAL, so four in-process workers exhaust this process's memory maps
// after about 8k queries (see README.md).

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "service/client.h"
#include "shard/coordinator.h"
#include "shard/coordinator_server.h"
#include "shard/local_group.h"
#include "shard/partition.h"
#include "shard/worker.h"
#include "sql/binder.h"
#include "spans.h"
#include "storage/extent_file.h"
#include "workloads.h"

namespace aqpp {
namespace e2e {

namespace {

constexpr size_t kRows = 2'000'000;
constexpr uint32_t kShards = 4;
constexpr int kSetupReps = 5;
constexpr double kPoolQps = 1300;
constexpr size_t kAccuracyAnswers = 4000;
constexpr size_t kReplayed = 300;

// Removes the run's slab directory on every exit path.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// One aqpp-shardd process serving shard `index` of the slabs in `dir`. It
// prints "listening on HOST:PORT" once serving; the destructor stops it
// with SIGTERM and waits (SIGKILL after 10 s).
class ShardProcess {
 public:
  static Result<std::unique_ptr<ShardProcess>> Spawn(const std::string& dir,
                                                     uint32_t index,
                                                     const Schema& schema) {
    const std::vector<std::string> args = {
        E2E_SHARDD_PATH,
        "--dir", dir,
        "--shard", std::to_string(index),
        "--measure", schema.column(kExtendedPrice).name,
        "--dims", schema.column(kOrderKey).name + "," +
                      schema.column(kSuppKey).name,
        "--port", "0"};
    // Close-on-exec, so a later worker does not inherit an earlier one's
    // pipe and keep it open.
    int from_child[2];
    if (::pipe2(from_child, O_CLOEXEC) != 0) return Status::IOError("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    auto process = std::unique_ptr<ShardProcess>(new ShardProcess());
    const int rc = ::posix_spawn(&process->pid_, argv[0], &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(from_child[1]);
    process->stdout_ = ::fdopen(from_child[0], "r");
    if (rc != 0) {
      process->pid_ = -1;
      return Status::IOError(std::string("posix_spawn ") + argv[0] + ": " +
                             std::strerror(rc));
    }
    return process;
  }

  ~ShardProcess() {
    if (stdout_ != nullptr) std::fclose(stdout_);
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) return;
      ::usleep(10'000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  ShardProcess(const ShardProcess&) = delete;
  ShardProcess& operator=(const ShardProcess&) = delete;

  // Blocks until the daemon says where it listens; returns the port.
  Result<int> WaitListening() {
    char line[256];
    int port = 0;
    if (stdout_ == nullptr || std::fgets(line, sizeof(line), stdout_) == nullptr) {
      return Status::Internal("aqpp-shardd exited before listening");
    }
    const char* colon = std::strrchr(line, ':');
    if (std::strncmp(line, "listening on ", 13) != 0 || colon == nullptr ||
        std::sscanf(colon + 1, "%d", &port) != 1) {
      return Status::Internal(std::string("aqpp-shardd said: ") + line);
    }
    return port;
  }

  // The worker's VmHWM, MB.
  double PeakRssMb() const {
    return e2e::PeakRssMb("/proc/" + std::to_string(pid_) + "/status");
  }

 private:
  ShardProcess() = default;
  pid_t pid_ = -1;
  std::FILE* stdout_ = nullptr;
};

// Worker processes, the coordinator and its server. Declared in dependency
// order so destruction stops the front first and the workers last.
struct Fleet {
  std::vector<std::unique_ptr<ShardProcess>> processes;
  std::vector<int> ports;
  std::unique_ptr<shard::ShardCoordinator> coordinator;
  std::unique_ptr<shard::CoordinatorServer> front;

  std::vector<std::vector<shard::ReplicaEndpoint>> Endpoints() const {
    std::vector<std::vector<shard::ReplicaEndpoint>> out;
    for (int port : ports) out.push_back({{"127.0.0.1", port}});
    return out;
  }
};

// A coordinator (default options, cold cache) over `fleet`'s workers.
Result<std::unique_ptr<shard::ShardCoordinator>> Coordinate(const Fleet& fleet) {
  auto coordinator =
      std::make_unique<shard::ShardCoordinator>(fleet.Endpoints());
  AQPP_RETURN_NOT_OK(coordinator->Connect());
  return coordinator;
}

// Starts the four worker processes together (as a fleet starts), then the
// coordinator and its front.
Result<std::unique_ptr<Fleet>> StartFleet(
    const std::string& dir, const std::vector<shard::ShardSlabInfo>& slabs,
    const Catalog* catalog, const Schema& schema) {
  auto fleet = std::make_unique<Fleet>();
  for (const shard::ShardSlabInfo& slab : slabs) {
    AQPP_ASSIGN_OR_RETURN(auto process,
                          ShardProcess::Spawn(dir, slab.shard_index, schema));
    fleet->processes.push_back(std::move(process));
  }
  for (const auto& process : fleet->processes) {
    AQPP_ASSIGN_OR_RETURN(int port, process->WaitListening());
    fleet->ports.push_back(port);
  }
  AQPP_ASSIGN_OR_RETURN(fleet->coordinator, Coordinate(*fleet));
  fleet->front = std::make_unique<shard::CoordinatorServer>(
      fleet->coordinator.get(), catalog);
  AQPP_RETURN_NOT_OK(fleet->front->Start());
  return fleet;
}

// In-process workers over the same slabs, for the per-layer Partial timings
// and the coordinator's canonical domains; sets shard.build_from_slab_s.
Result<std::vector<std::unique_ptr<shard::ShardWorker>>> BuildWorkers(
    const std::string& dir, const std::vector<shard::ShardSlabInfo>& slabs,
    RunReport* report) {
  std::vector<std::unique_ptr<shard::ShardWorker>> workers;
  double build_seconds = 0;
  for (const shard::ShardSlabInfo& slab : slabs) {
    const Clock::time_point start = Clock::now();
    AQPP_ASSIGN_OR_RETURN(
        auto worker,
        shard::ShardWorker::BuildFromSlab(dir + "/" + slab.path,
                                          Table1Template(), slab.shard_index,
                                          slab.num_shards, slab.row_begin, {}));
    build_seconds += SecondsSince(start);
    workers.push_back(std::move(worker));
  }
  if (report != nullptr) report->Set("shard.build_from_slab_s", build_seconds);
  return workers;
}

// The coordinator's canonical form: its canonicalizer is built from the
// workers' condition-column domains merged over shards (SHARDINFO).
QueryCanonicalizer CoordinatorCanonicalizer(
    const std::vector<const shard::ShardWorker*>& workers) {
  std::map<size_t, std::pair<int64_t, int64_t>> merged;
  for (const shard::ShardWorker* w : workers) {
    for (const shard::ColumnDomain& d : w->domains()) {
      auto [it, fresh] = merged.try_emplace(d.column, d.min, d.max);
      if (!fresh) {
        it->second.first = std::min(it->second.first, d.min);
        it->second.second = std::max(it->second.second, d.max);
      }
    }
  }
  std::vector<ColumnDomainSpec> specs;
  size_t num_columns = 0;
  for (const auto& [col, range] : merged) {
    specs.push_back({col, range.first, range.second});
    num_columns = std::max(num_columns, col + 1);
  }
  return QueryCanonicalizer::FromDomains(num_columns, specs);
}

shard::MergeOptions SampleMerge(uint64_t total_rows) {
  shard::MergeOptions merge;
  merge.mode = shard::MergeMode::kSample;
  merge.total_rows = total_rows;
  return merge;
}

// storage.open_ms (median ExtentFileReader::Open over the slabs) and
// storage.decode_mb_per_s (Pin of every extent of every column, decoded
// bytes over time).
Status TimeStorage(const std::string& dir,
                   const std::vector<shard::ShardSlabInfo>& slabs,
                   RunReport* report) {
  std::vector<double> open_ms;
  double decoded_bytes = 0, decode_seconds = 0;
  for (const shard::ShardSlabInfo& slab : slabs) {
    Clock::time_point start = Clock::now();
    AQPP_ASSIGN_OR_RETURN(auto reader,
                          ExtentFileReader::Open(dir + "/" + slab.path));
    open_ms.push_back(MsBetween(start, Clock::now()));
    start = Clock::now();
    for (size_t e = 0; e < reader->num_extents(); ++e) {
      for (size_t c = 0; c < reader->num_columns(); ++c) {
        AQPP_ASSIGN_OR_RETURN(auto column, reader->Pin(e, c));
        decoded_bytes += static_cast<double>(column.rows * sizeof(int64_t));
      }
    }
    decode_seconds += SecondsSince(start);
  }
  report->Set("storage.open_ms", Percentile(open_ms, 0.5));
  report->Set("storage.decode_mb_per_s",
              decoded_bytes / double(1 << 20) / decode_seconds);
  return Status::OK();
}

}  // namespace

Status RunShard4(const RunConfig& config, RunReport* report) {
  AQPP_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, MakeTpcdSkew(kRows));
  Catalog catalog;
  AQPP_RETURN_NOT_OK(catalog.Register(kTableName, table));
  const size_t pool_size = std::max(
      static_cast<size_t>(std::ceil(config.seconds * kPoolQps)),
      kAccuracyAnswers);
  AQPP_ASSIGN_OR_RETURN(
      std::vector<RangeQuery> queries,
      MakeQueryPool(*table, Table1Template(), pool_size, config.seed));
  AQPP_ASSIGN_OR_RETURN(std::vector<std::string> sqls, ToSql(queries, *table));
  AQPP_ASSIGN_OR_RETURN(std::vector<double> truths, ExactTruths(*table, queries));

  // Slabs are packed before set-up and not timed (table_pack shard's job).
  ScratchDir slab_dir{config.work_dir + "/shard4-slabs-" +
                      std::to_string(::getpid())};
  AQPP_ASSIGN_OR_RETURN(shard::ShardPlan plan,
                        shard::MakeShardPlan(table->num_rows(), kShards));
  std::filesystem::create_directories(slab_dir.path);
  AQPP_ASSIGN_OR_RETURN(auto slabs,
                        shard::PackShardSlabs(*table, plan, slab_dir.path));

  // Set-up: BuildFromSlab x4 + worker servers + coordinator Connect + front.
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setups;
  for (int r = 0; r < (config.trace ? 1 : kSetupReps); ++r) {
    fleet.reset();
    const Clock::time_point start = Clock::now();
    AQPP_ASSIGN_OR_RETURN(fleet, StartFleet(slab_dir.path, slabs, &catalog,
                                             table->schema()));
    setups.push_back(SecondsSince(start));
  }
  report->Set("setup_s", Percentile(setups, 0.5));
  AQPP_ASSIGN_OR_RETURN(ServiceClient client,
                        ServiceClient::Connect("127.0.0.1", fleet->front->port()));
  // Peak RSS is read when the accuracy prefix is in: each worker keeps one
  // thread per PARTIAL connection it served (README), so a later read
  // would scale with the run's qps.
  StealMonitor window;
  std::vector<TimedReply> replies = ClosedLoop(
      client, sqls, config.seconds, kAccuracyAnswers,
      [&] {
        double peak_rss_mb = PeakRssMb();
        for (const auto& p : fleet->processes) peak_rss_mb += p->PeakRssMb();
        report->Set("peak_rss_mb", peak_rss_mb);
      },
      &window, report);
  std::vector<AnswerAccuracy> answers = CheckReplies(
      replies, [&](size_t i) { return truths[replies[i].query]; }, report);
  if (answers.size() > kAccuracyAnswers) answers.resize(kAccuracyAnswers);
  SetLatencyMetrics(replies, window, report);
  SetAccuracyMetrics(answers, report);

  // The workers' prepared state, rebuilt in this process from the same slabs
  // after the window (deterministic: same slab, same ShardSeed).
  AQPP_ASSIGN_OR_RETURN(
      auto workers,
      BuildWorkers(slab_dir.path, slabs, config.trace ? report : nullptr));
  double precomputed_bytes = 0;
  for (const auto& w : workers) {
    precomputed_bytes += static_cast<double>(
        w->engine().cube()->MemoryUsage() + w->engine().sample().MemoryUsage());
  }
  report->Set("precomputed_mb", precomputed_bytes / double(1 << 20));

  // Every merged answer equals the in-process shard group's, same seed, bit
  // for bit (the group slices the same table in memory).
  std::vector<const shard::ShardWorker*> worker_views;
  for (const auto& w : workers) worker_views.push_back(w.get());
  const QueryCanonicalizer canonicalizer = CoordinatorCanonicalizer(worker_views);
  {
    AQPP_ASSIGN_OR_RETURN(
        auto group,
        shard::LocalShardGroup::Build(table, Table1Template(), kShards, {}));
    const shard::PartialWants wants{.sample = true};
    for (const TimedReply& r : replies) {
      if (!r.reply.ok()) continue;
      CanonicalQuery canon = canonicalizer.Canonicalize(queries[r.query]);
      AQPP_ASSIGN_OR_RETURN(
          shard::MergedAnswer local,
          group->Query(canon.query, wants, canon.seed,
                       SampleMerge(table->num_rows())));
      if (!SameBits(local.ci.estimate, r.reply->estimate) ||
          !SameBits(local.ci.half_width, r.reply->half_width) ||
          r.reply->degraded) {
        report->Violation("shard query " + std::to_string(r.query) +
                          ": TCP answer differs from LocalShardGroup::Query");
      }
    }
  }
  if (!config.trace) return Status::OK();

  // ---- Traced run: per-layer numbers -------------------------------------
  const ResultCacheStats cache = fleet->coordinator->cache_stats();
  report->Set("service.cache_hit_frac",
              cache.hits + cache.misses == 0
                  ? 0.0
                  : static_cast<double>(cache.hits) / (cache.hits + cache.misses));
  AQPP_RETURN_NOT_OK(TimeStorage(slab_dir.path, slabs, report));

  // Cold coordinators: one behind a fresh front for the TCP leg, one
  // in-process (Query + raw Scatter).
  AQPP_ASSIGN_OR_RETURN(auto tcp_coordinator, Coordinate(*fleet));
  shard::CoordinatorServer replay_front(tcp_coordinator.get(), &catalog);
  AQPP_RETURN_NOT_OK(replay_front.Start());
  AQPP_ASSIGN_OR_RETURN(auto coordinator, Coordinate(*fleet));
  AQPP_ASSIGN_OR_RETURN(ServiceClient replay_client,
                        ServiceClient::Connect("127.0.0.1", replay_front.port()));
  const shard::PartialWants wants{.sample = true};
  const shard::MergeOptions merge = SampleMerge(table->num_rows());
  SpanRecorder spans;
  std::vector<double> partial_max_ms, fanout_ms;
  const std::string root = "query.tcp";
  for (size_t i = 0; i < std::min(kReplayed, sqls.size()); ++i) {
    Result<QueryReply> tcp = spans.Time(
        i, root, "", [&] { return replay_client.Query(sqls[i]); });
    Status ping = spans.Time(i, "service.ping", root,
                             [&] { return replay_client.Ping(); });
    Result<BoundQuery> bound = spans.Time(
        i, "sql.parse_bind", root, [&] { return ParseAndBind(sqls[i], catalog); });
    report->Attempt(!tcp.ok() || !ping.ok() || !bound.ok());
    if (!tcp.ok() || !ping.ok() || !bound.ok()) {
      report->Violation("shard replay " + std::to_string(i) + " failed");
      continue;
    }
    Result<shard::CoordinatorAnswer> answer =
        spans.Time(i, "shard.coordinator_query", root,
                   [&] { return coordinator->Query(bound->query); });
    CanonicalQuery canon =
        spans.Time(i, "service.canonicalize", "shard.coordinator_query",
                   [&] { return canonicalizer.Canonicalize(bound->query); });
    auto partials = spans.Time(i, "shard.scatter", "shard.coordinator_query", [&] {
      return coordinator->Scatter(canon.query, canon.seed);
    });
    const double scatter_ms = spans.spans().back().ms();
    Result<shard::MergedAnswer> merged =
        spans.Time(i, "shard.merge", "shard.coordinator_query", [&] {
          return shard::MergePartials(canon.query, partials, merge);
        });
    double slowest = 0;
    for (const auto& w : workers) {
      Result<shard::ShardPartial> p =
          spans.Time(i, "shard.partial", "shard.scatter", [&] {
            return w->Partial(canon.query, wants, canon.seed);
          });
      if (!p.ok()) report->Violation("shard partial failed: " + p.status().ToString());
      slowest = std::max(slowest, spans.spans().back().ms());
    }
    partial_max_ms.push_back(slowest);
    fanout_ms.push_back(scatter_ms - slowest);
    const int worker_port = fleet->ports[i % kShards];
    Status connect = spans.Time(i, "shard.connect", "shard.scatter", [&] {
      AQPP_ASSIGN_OR_RETURN(ServiceClient c,
                            ServiceClient::Connect("127.0.0.1", worker_port));
      AQPP_RETURN_NOT_OK(c.Ping());
      c.Close();
      return Status::OK();
    });
    if (!answer.ok() || !merged.ok() || !connect.ok() ||
        !SameBits(answer->merged.ci.estimate, tcp->estimate) ||
        !SameBits(merged->ci.estimate, tcp->estimate)) {
      report->Violation("shard replay " + std::to_string(i) +
                        ": in-process coordinator/merge differ from TCP");
    }
  }
  const double rtt = spans.MedianMs(root);
  const double ping = spans.MedianMs("service.ping");
  const double parse = spans.MedianMs("sql.parse_bind");
  const double query = spans.MedianMs("shard.coordinator_query");
  report->Set("bench.replay_rtt_ms", rtt);
  report->Set("service.ping_ms", ping);
  report->Set("sql.parse_bind_ms", parse);
  report->Set("service.canonicalize_ms", spans.MedianMs("service.canonicalize"));
  report->Set("shard.coordinator_query_ms", query);
  report->Set("shard.scatter_ms", spans.MedianMs("shard.scatter"));
  report->Set("shard.merge_ms", spans.MedianMs("shard.merge"));
  report->Set("shard.connect_ms", spans.MedianMs("shard.connect"));
  report->Set("shard.partial_max_ms", Percentile(partial_max_ms, 0.5));
  report->Set("shard.fanout_overhead_ms", Percentile(fanout_ms, 0.5));
  report->Set("bench.unattributed_frac",
              UnattributedFraction({ping, parse, query}, rtt));
  return spans.WriteJsonLines(config.work_dir + "/results/" + config.workload +
                              "-seed" + std::to_string(config.seed) +
                              "-spans.jsonl");
}

}  // namespace e2e
}  // namespace aqpp
