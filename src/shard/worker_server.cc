#include "shard/worker_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "service/ingest_wire.h"
#include "service/protocol.h"
#include "shard/partial.h"

namespace aqpp {
namespace shard {

namespace {

// Batch-pass metrics: same series the service's fused passes feed.
struct BatcherMetrics {
  obs::Counter* fused;
  obs::Histogram* batch_size;
  static const BatcherMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static const BatcherMetrics m = {
        reg.GetCounter(
            "aqpp_batch_queries_fused_total", "",
            "Member queries answered by fused shared-scan batch passes."),
        reg.GetHistogram("aqpp_batch_size", "", {1, 2, 4, 8, 16, 32, 64},
                         "Queries fused per shared-scan batch pass."),
    };
    return m;
  }
};

}  // namespace

// Fuses concurrent PARTIAL requests into single ShardWorker::PartialBatch
// calls. A submitting thread with no active leader becomes one: it executes
// everything queued at once — a lone request runs solo, it never waits for
// company — and fans the per-member results out. Followers park until their
// slot is fulfilled; arrivals during an execution form the next batch.
class PartialBatcher {
 public:
  explicit PartialBatcher(const ShardWorker* worker) : worker_(worker) {}

  Result<ShardPartial> Submit(ShardWorker::PartialRequest req) {
    auto slot = std::make_shared<Slot>(std::move(req));
    std::unique_lock<std::mutex> lock(mu_);
    pending_.push_back(slot);
    for (;;) {
      if (slot->done) return std::move(slot->result);
      if (!leader_active_) break;
      cv_.wait(lock);
    }
    leader_active_ = true;
    std::vector<std::shared_ptr<Slot>> batch;
    batch.swap(pending_);
    lock.unlock();

    std::vector<ShardWorker::PartialRequest> requests;
    requests.reserve(batch.size());
    for (const auto& s : batch) requests.push_back(s->req);
    BatcherMetrics::Get().batch_size->Observe(
        static_cast<double>(batch.size()));
    BatcherMetrics::Get().fused->Increment(batch.size());
    auto results = worker_->PartialBatch(requests);

    lock.lock();
    Result<ShardPartial> mine = Status::Internal("batch lost its own slot");
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i] == slot) {
        mine = std::move(results[i]);
      } else {
        batch[i]->result = std::move(results[i]);
      }
      batch[i]->done = true;
    }
    leader_active_ = false;
    cv_.notify_all();
    return mine;
  }

 private:
  struct Slot {
    explicit Slot(ShardWorker::PartialRequest r) : req(std::move(r)) {}
    ShardWorker::PartialRequest req;
    Result<ShardPartial> result = Status::Internal("pending");
    bool done = false;
  };

  const ShardWorker* worker_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool leader_active_ = false;
  std::vector<std::shared_ptr<Slot>> pending_;
};

namespace {

struct WorkerMetrics {
  obs::Counter* partials;
  obs::Counter* partial_errors;
  obs::Histogram* partial_seconds;
  static const WorkerMetrics& Get() {
    static const WorkerMetrics m = {
        obs::Registry::Global().GetCounter(
            "aqpp_shard_partials_total", "",
            "PARTIAL requests answered by this shard worker."),
        obs::Registry::Global().GetCounter(
            "aqpp_shard_partial_errors_total", "",
            "PARTIAL requests that failed to parse or compute."),
        obs::Registry::Global().GetHistogram(
            "aqpp_shard_partial_seconds", "", {},
            "Wall-clock seconds per PARTIAL request."),
    };
    return m;
  }
};

// Same contract as the service server's SendAll, behind the shard worker's
// own failpoint so chaos schedules can kill exactly one tier.
bool SendAll(int fd, const std::string& s) {
  size_t limit = s.size();
  if (auto fired = AQPP_FAILPOINT_EVAL("shard/worker/send")) {
    if (fired->kind == fail::ActionKind::kReturnError) return false;
    if (fired->kind == fail::ActionKind::kPartialIo) {
      limit = static_cast<size_t>(static_cast<double>(s.size()) *
                                  fired->io_fraction);
    }
  }
  size_t sent = 0;
  while (sent < limit) {
    ssize_t n = ::send(fd, s.data() + sent, limit - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return sent == s.size();
}

}  // namespace

WorkerServer::WorkerServer(const ShardWorker* worker,
                           WorkerServerOptions options)
    : worker_(worker), options_(std::move(options)) {
  if (options_.enable_batching) {
    batcher_ = std::make_unique<PartialBatcher>(worker_);
  }
}

WorkerServer::~WorkerServer() { Stop(); }

Status WorkerServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already started");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host '" + options_.host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, options_.backlog) < 0) {
    Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_.store(fd);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void WorkerServer::AcceptLoop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by Stop()
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!running_.load() ||
        !connections_.Start(fd, options_.max_connections,
                            [this](int conn) { HandleConnection(conn); })) {
      SendAll(fd, FormatResponse(Response::Error(
                      "ResourceExhausted", "connection limit reached")) +
                      "\n");
      ::close(fd);
    }
  }
}

std::string WorkerServer::HandleLine(const std::string& line, bool* quit) {
  auto req = ParseRequest(line);
  if (!req.ok()) {
    return FormatResponse(Response::Error(
        StatusCodeToString(req.status().code()), req.status().message()));
  }
  Response resp;
  switch (req->type) {
    case RequestType::kHello:
      resp.AddUint("shard", worker_->shard_index());
      resp.AddUint("shards", worker_->num_shards());
      return FormatResponse(resp);
    case RequestType::kPing:
      resp.AddUint("pong", 1);
      return FormatResponse(resp);
    case RequestType::kShardInfo: {
      resp.AddUint("shard", worker_->shard_index());
      resp.AddUint("shards", worker_->num_shards());
      resp.AddUint("rows", worker_->rows());
      resp.AddUint("row_begin", worker_->row_begin());
      resp.AddUint("sample_rows", worker_->sample_rows());
      if (worker_->ingest() != nullptr) {
        resp.AddUint("generation", worker_->ingest_generation());
      }
      std::string domains;
      for (const ColumnDomain& d : worker_->domains()) {
        if (!domains.empty()) domains += ',';
        domains += StrFormat("%zu:%lld:%lld", d.column,
                             static_cast<long long>(d.min),
                             static_cast<long long>(d.max));
      }
      if (!domains.empty()) resp.Add("domains", domains);
      return FormatResponse(resp);
    }
    case RequestType::kPartial: {
      const WorkerMetrics& metrics = WorkerMetrics::Get();
      Timer timer;
      auto spec = ParsePartialSpec(req->args);
      if (!spec.ok()) {
        metrics.partial_errors->Increment();
        return FormatResponse(
            Response::Error(StatusCodeToString(spec.status().code()),
                            spec.status().message()));
      }
      if (!spec->synopsis_kind.empty()) {
        // Estimator agreement check: a coordinator that wants synopsis
        // answers must talk to workers built with that synopsis.
        auto active = worker_->engine().active_synopsis();
        std::string have = active != nullptr ? active->kind() : "";
        if (spec->synopsis_kind != have) {
          metrics.partial_errors->Increment();
          return FormatResponse(Response::Error(
              "FailedPrecondition",
              "synopsis mismatch: request wants '" + spec->synopsis_kind +
                  "', worker has '" + (have.empty() ? "off" : have) + "'"));
        }
      }
      auto partial =
          batcher_ != nullptr
              ? batcher_->Submit({spec->query, spec->wants, spec->seed})
              : worker_->Partial(spec->query, spec->wants, spec->seed);
      if (!partial.ok()) {
        metrics.partial_errors->Increment();
        return FormatResponse(
            Response::Error(StatusCodeToString(partial.status().code()),
                            partial.status().message()));
      }
      metrics.partials->Increment();
      metrics.partial_seconds->Observe(timer.ElapsedSeconds());
      EncodePartial(*partial, &resp);
      if (worker_->ingest() != nullptr) {
        // Freshness hint: the committed generation the fold could reflect.
        resp.AddUint("generation", worker_->ingest_generation());
      }
      return FormatResponse(resp);
    }
    case RequestType::kIngest: {
      IngestManager* ingest = worker_->ingest();
      if (ingest == nullptr) {
        return FormatResponse(Response::Error(
            "FailedPrecondition",
            "streaming ingest is not enabled on this worker"));
      }
      auto batch = DecodeIngestBatch(req->args, worker_->table());
      if (!batch.ok()) {
        return FormatResponse(
            Response::Error(StatusCodeToString(batch.status().code()),
                            batch.status().message()));
      }
      if (Status st = ingest->Append(**batch); !st.ok()) {
        return FormatResponse(Response::Error(
            StatusCodeToString(st.code()), st.message()));
      }
      IngestSnapshot snap = ingest->snapshot();
      resp.AddUint("appended", (*batch)->num_rows());
      resp.AddUint("generation", snap.committed_generation);
      resp.AddUint("delta_rows", snap.delta_rows);
      resp.AddUint("total_rows", snap.total_rows);
      return FormatResponse(resp);
    }
    case RequestType::kMetrics: {
      std::string text = obs::Registry::Global().RenderPrometheus();
      uint64_t lines = 0;
      for (char c : text) {
        if (c == '\n') ++lines;
      }
      resp.AddUint("lines", lines);
      return FormatResponse(resp) + "\n" + text + "# EOF";
    }
    case RequestType::kQuit:
      *quit = true;
      resp.AddUint("bye", 1);
      return FormatResponse(resp);
    default:
      return FormatResponse(Response::Error(
          "InvalidArgument", "verb not supported by shard workers"));
  }
}

void WorkerServer::HandleConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool quit = false;
  while (!quit) {
    if (auto fired = AQPP_FAILPOINT_EVAL("shard/worker/recv");
        fired.has_value() && fired->kind == fail::ActionKind::kReturnError) {
      break;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // disconnect or Stop()
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while (!quit && (nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (TrimWhitespace(line).empty()) continue;
      std::string reply = HandleLine(line, &quit);
      if (!SendAll(fd, reply + "\n")) {
        quit = true;
      }
    }
  }
}

size_t WorkerServer::active_connections() const {
  return connections_.open();
}

void WorkerServer::Stop() {
  running_.store(false);
  if (int fd = listen_fd_.exchange(-1); fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  connections_.ShutdownAndJoin();
}

}  // namespace shard
}  // namespace aqpp
