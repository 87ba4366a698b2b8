#include "shard/coordinator_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "sql/binder.h"

namespace aqpp {
namespace shard {

namespace {

bool SendAll(int fd, const std::string& s) {
  size_t sent = 0;
  while (sent < s.size()) {
    ssize_t n = ::send(fd, s.data() + sent, s.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

CoordinatorServer::CoordinatorServer(ShardCoordinator* coordinator,
                                     const Catalog* catalog,
                                     CoordinatorServerOptions options)
    : coordinator_(coordinator),
      catalog_(catalog),
      options_(std::move(options)) {}

CoordinatorServer::~CoordinatorServer() { Stop(); }

Status CoordinatorServer::Start() {
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

void CoordinatorServer::AcceptLoop() {
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

std::string CoordinatorServer::HandleLine(const std::string& line,
                                          bool* quit) {
  auto req = ParseRequest(line);
  if (!req.ok()) {
    return FormatResponse(Response::Error(
        StatusCodeToString(req.status().code()), req.status().message()));
  }
  Response resp;
  switch (req->type) {
    case RequestType::kHello:
      resp.AddUint("shards", coordinator_->num_shards());
      resp.AddUint("rows", coordinator_->total_rows());
      return FormatResponse(resp);
    case RequestType::kPing:
      resp.AddUint("pong", 1);
      return FormatResponse(resp);
    case RequestType::kShardInfo:
      resp.AddUint("shards", coordinator_->num_shards());
      resp.AddUint("rows", coordinator_->total_rows());
      return FormatResponse(resp);
    case RequestType::kQuery: {
      auto bound = ParseAndBind(req->sql, *catalog_);
      if (!bound.ok()) {
        return FormatResponse(
            Response::Error(StatusCodeToString(bound.status().code()),
                            bound.status().message()));
      }
      auto answer = coordinator_->Query(bound->query);
      if (!answer.ok()) {
        return FormatResponse(
            Response::Error(StatusCodeToString(answer.status().code()),
                            answer.status().message()));
      }
      resp.AddDouble("estimate", answer->merged.ci.estimate);
      resp.AddDouble("lo", answer->merged.ci.lower());
      resp.AddDouble("hi", answer->merged.ci.upper());
      resp.AddDouble("half_width", answer->merged.ci.half_width);
      resp.AddDouble("level", answer->merged.ci.level);
      resp.AddUint("cache_hit", answer->cache_hit ? 1 : 0);
      resp.AddUint("degraded", answer->merged.degraded ? 1 : 0);
      resp.AddUint("shards", answer->merged.shards_total);
      resp.AddUint("shards_answered", answer->merged.shards_answered);
      resp.AddUint("pre", answer->merged.used_pre ? 1 : 0);
      resp.AddDouble("exec_ms", answer->exec_seconds * 1000.0);
      return FormatResponse(resp);
    }
    case RequestType::kIngest: {
      // Forwarded verbatim: the coordinator owns no schema, so the payload
      // is validated (and decoded) by the target shard's workers.
      auto ack = coordinator_->IngestRaw(req->args);
      if (!ack.ok()) {
        return FormatResponse(
            Response::Error(StatusCodeToString(ack.status().code()),
                            ack.status().message()));
      }
      resp.AddUint("appended", ack->appended);
      resp.AddUint("generation", ack->generation);
      resp.AddUint("delta_rows", ack->delta_rows);
      resp.AddUint("total_rows", ack->total_rows);
      resp.AddUint("replicas", ack->replicas_acked);
      return FormatResponse(resp);
    }
    case RequestType::kStats: {
      ResultCacheStats cache = coordinator_->cache_stats();
      resp.AddUint("shards", coordinator_->num_shards());
      resp.AddUint("rows", coordinator_->total_rows());
      resp.AddUint("cache_hits", cache.hits);
      resp.AddUint("cache_misses", cache.misses);
      resp.AddUint("cache_size", cache.size);
      resp.AddUint("cache_evictions", cache.evictions);
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
          "InvalidArgument", "verb not supported by the coordinator"));
  }
}

void CoordinatorServer::HandleConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool quit = false;
  while (!quit) {
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

void CoordinatorServer::Stop() {
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
