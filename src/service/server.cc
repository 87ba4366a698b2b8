#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/ingest_wire.h"
#include "service/protocol.h"
#include "sql/binder.h"

namespace aqpp {

namespace {

// Writes all of `s` (blocking socket); false on a broken connection. The
// service/server/send failpoint simulates a peer that vanished mid-reply:
// partial-io transmits a prefix and then reports the connection broken, so
// tests can verify clients treat truncated frames as connection errors.
bool SendAll(int fd, const std::string& s) {
  size_t limit = s.size();
  if (auto fired = AQPP_FAILPOINT_EVAL("service/server/send")) {
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

// Returns true if the request line is a CANCEL verb.
bool IsCancelLine(const std::string& line) {
  auto req = ParseRequest(line);
  return req.ok() && req->type == RequestType::kCancel;
}

}  // namespace

ServiceServer::ServiceServer(QueryService* service, const Catalog* catalog,
                             ServerOptions options)
    : service_(service), catalog_(catalog), options_(std::move(options)) {}

ServiceServer::~ServiceServer() { Stop(); }

Status ServiceServer::Start() {
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
    Status st = Status::IOError(std::string("listen: ") +
                                std::strerror(errno));
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

void ServiceServer::AcceptLoop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by Stop()
    }
    // Simulated accept-path failure: the kernel handed us a connection but
    // the server drops it before registering (e.g. fd-limit pressure).
    if (auto fired = AQPP_FAILPOINT_EVAL("service/server/accept");
        fired.has_value() && fired->kind == fail::ActionKind::kReturnError) {
      ::close(fd);
      continue;
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

std::string ServiceServer::HandleLine(ConnState* conn, const std::string& line,
                                      bool* quit) {
  uint64_t* session_id = &conn->session_id;
  auto req = ParseRequest(line);
  if (!req.ok()) {
    return FormatResponse(Response::Error(
        StatusCodeToString(req.status().code()), req.status().message()));
  }
  Response resp;
  switch (req->type) {
    case RequestType::kHello: {
      // The accept path already opened a session; HELLO just reports it (a
      // second HELLO with a name opens a fresh, named one).
      if (!req->name.empty()) {
        auto opened = service_->sessions().Open(req->name);
        if (!opened.ok()) {
          return FormatResponse(
              Response::Error(StatusCodeToString(opened.status().code()),
                              opened.status().message()));
        }
        (void)service_->sessions().Close(*session_id);
        *session_id = (*opened)->id();
      }
      resp.AddUint("session", *session_id);
      return FormatResponse(resp);
    }
    case RequestType::kPing:
      resp.AddUint("pong", 1);
      return FormatResponse(resp);
    case RequestType::kSet: {
      if (req->set_key == "synopsis") {
        // Service-wide estimator selection; "off" restores the legacy path.
        std::string kind = ToLowerAscii(req->set_value);
        Status set = service_->SetSynopsis(kind == "off" ? "" : kind);
        if (!set.ok()) {
          return FormatResponse(Response::Error(
              StatusCodeToString(set.code()), set.message()));
        }
        resp.Add("synopsis", kind.empty() ? "off" : kind);
        return FormatResponse(resp);
      }
      if (req->set_key == "mode") {
        std::string mode = ToLowerAscii(req->set_value);
        if (mode != "online" && mode != "oneshot") {
          return FormatResponse(Response::Error(
              "InvalidArgument", "MODE wants 'online' or 'oneshot'"));
        }
        conn->online = mode == "online";
        resp.Add("mode", mode);
        return FormatResponse(resp);
      }
      if (req->set_key != "timeout_ms") {
        return FormatResponse(Response::Error(
            "InvalidArgument", "unknown setting '" + req->set_key + "'"));
      }
      auto session = service_->sessions().Get(*session_id);
      if (!session.ok()) {
        return FormatResponse(
            Response::Error(StatusCodeToString(session.status().code()),
                            session.status().message()));
      }
      long long ms = std::atoll(req->set_value.c_str());
      (*session)->set_default_timeout_seconds(
          ms <= 0 ? 0.0 : static_cast<double>(ms) / 1000.0);
      resp.AddUint("timeout_ms", ms <= 0 ? 0 : static_cast<uint64_t>(ms));
      return FormatResponse(resp);
    }
    case RequestType::kQuery: {
      if (conn->online) return HandleOnlineQuery(conn, req->sql, quit);
      // The trace outlives the Execute call (the worker writes into it while
      // this thread blocks); spans recorded here land in the same global
      // phase histograms the engine phases do.
      obs::QueryTrace trace;
      obs::SpanTimer parse_span(obs::Phase::kParse, &trace);
      auto bound = ParseAndBind(req->sql, *catalog_);
      parse_span.Stop();
      if (!bound.ok()) {
        return FormatResponse(
            Response::Error(StatusCodeToString(bound.status().code()),
                            bound.status().message()));
      }
      QueryOutcome out = service_->Execute(*session_id, bound->query,
                                           /*timeout_seconds=*/-1, &trace);
      if (!out.status.ok()) {
        Response err = Response::Error(StatusCodeToString(out.status.code()),
                                       out.status.message());
        if (out.status.code() == StatusCode::kResourceExhausted) {
          // retry_after_ms must precede msg=; insert after code=.
          err.fields.emplace_back(
              "retry_after_ms",
              StrFormat("%lld", static_cast<long long>(
                                    out.retry_after_seconds * 1000.0 + 0.5)));
        }
        return FormatResponse(err);
      }
      resp.AddDouble("estimate", out.ci.estimate);
      resp.AddDouble("lo", out.ci.lower());
      resp.AddDouble("hi", out.ci.upper());
      resp.AddDouble("half_width", out.ci.half_width);
      resp.AddDouble("level", out.ci.level);
      resp.AddUint("cache_hit", out.cache_hit ? 1 : 0);
      resp.AddUint("partial", out.partial ? 1 : 0);
      if (out.partial) resp.AddUint("rows_used", out.partial_rows_used);
      resp.AddUint("pre", out.used_pre ? 1 : 0);
      resp.AddDouble("queue_ms", out.queue_seconds * 1000.0);
      resp.AddDouble("exec_ms", out.exec_seconds * 1000.0);
      if (service_->ingest() != nullptr) {
        resp.AddUint("generation", out.ingest_generation);
        resp.AddUint("delta_rows", out.delta_rows);
        resp.AddUint("folded", out.delta_folded ? 1 : 0);
      }
      return FormatResponse(resp);
    }
    case RequestType::kStats: {
      ServiceStats s = service_->stats();
      resp.AddUint("queries", s.queries);
      resp.AddUint("completed", s.completed);
      resp.AddUint("cache_hits", s.cache_hits);
      resp.AddUint("rejected", s.rejected);
      resp.AddUint("timed_out", s.timed_out);
      resp.AddUint("partial", s.partial);
      resp.AddUint("cancelled", s.cancelled);
      resp.AddUint("failed", s.failed);
      resp.AddUint("queue_depth", s.admission.queue_depth);
      resp.AddUint("peak_queue_depth", s.admission.peak_queue_depth);
      resp.AddDouble("p50_ms", s.p50_latency_seconds * 1000.0);
      resp.AddDouble("p95_ms", s.p95_latency_seconds * 1000.0);
      resp.AddDouble("p99_ms", s.p99_latency_seconds * 1000.0);
      resp.AddDouble("cache_hit_rate", s.cache_hit_rate);
      resp.AddUint("cache_size", s.cache.size);
      resp.AddUint("cache_evictions", s.cache.evictions);
      resp.AddUint("cache_invalidated", s.cache.invalidated);
      resp.AddUint("sessions_active", s.sessions_active);
      resp.AddUint("sessions_opened", s.sessions_opened);
      resp.AddUint("slow_queries", s.slow_queries);
      // This connection's per-session counters.
      if (auto session = service_->sessions().Get(*session_id);
          session.ok()) {
        SessionCounters c = (*session)->counters();
        resp.AddUint("session_submitted", c.submitted);
        resp.AddUint("session_completed", c.completed);
        resp.AddUint("session_cache_hits", c.cache_hits);
        resp.AddUint("session_rejected", c.rejected);
        resp.AddUint("session_timed_out", c.timed_out);
        resp.AddUint("session_failed", c.failed);
      }
      return FormatResponse(resp);
    }
    case RequestType::kMetrics: {
      // Multi-line framing: the header response counts the raw Prometheus
      // text lines that follow; a literal "# EOF" line terminates the block
      // (OpenMetrics convention) so clients need no length bookkeeping.
      std::string text = obs::Registry::Global().RenderPrometheus();
      uint64_t lines = 0;
      for (char c : text) {
        if (c == '\n') ++lines;
      }
      resp.AddUint("lines", lines);
      return FormatResponse(resp) + "\n" + text + "# EOF";
    }
    case RequestType::kIngest: {
      IngestManager* ingest = service_->ingest();
      if (ingest == nullptr) {
        return FormatResponse(Response::Error(
            "FailedPrecondition", "streaming ingest is not enabled"));
      }
      auto batch = DecodeIngestBatch(req->args, service_->engine().table());
      if (!batch.ok()) {
        return FormatResponse(
            Response::Error(StatusCodeToString(batch.status().code()),
                            batch.status().message()));
      }
      Status appended = ingest->Append(**batch);
      if (!appended.ok()) {
        return FormatResponse(Response::Error(
            StatusCodeToString(appended.code()), appended.message()));
      }
      IngestSnapshot snap = ingest->snapshot();
      resp.AddUint("appended", (*batch)->num_rows());
      resp.AddUint("generation", snap.committed_generation);
      resp.AddUint("delta_rows", snap.delta_rows);
      resp.AddUint("total_rows", snap.total_rows);
      return FormatResponse(resp);
    }
    case RequestType::kCancel:
      // A CANCEL with no online query streaming is a no-op; mid-stream
      // CANCELs are consumed by HandleOnlineQuery and never reach here.
      resp.AddUint("cancelled", 0);
      return FormatResponse(resp);
    case RequestType::kQuit:
      *quit = true;
      resp.AddUint("bye", 1);
      return FormatResponse(resp);
    case RequestType::kShardInfo:
    case RequestType::kPartial:
      return FormatResponse(Response::Error(
          "Unimplemented",
          "shard verbs are served by aqpp-shardd, not the query service"));
  }
  return FormatResponse(Response::Error("Internal", "unhandled verb"));
}

std::string ServiceServer::HandleOnlineQuery(ConnState* conn,
                                             const std::string& sql,
                                             bool* quit) {
  obs::QueryTrace trace;
  obs::SpanTimer parse_span(obs::Phase::kParse, &trace);
  auto bound = ParseAndBind(sql, *catalog_);
  parse_span.Stop();
  if (!bound.ok()) {
    return FormatResponse(
        Response::Error(StatusCodeToString(bound.status().code()),
                        bound.status().message()));
  }
  // Rounds first, then the final one-shot execution: the final OK line must
  // be bit-identical to oneshot mode, and computing it up front lets the
  // stream guarantee that no PROGRESS round is tighter than the final
  // interval (rounds that would be are dropped).
  std::vector<ProgressiveStep> rounds;
  Status round_status =
      service_->OnlineRounds(conn->session_id, bound->query, &rounds);
  if (!round_status.ok()) {
    return FormatResponse(Response::Error(
        StatusCodeToString(round_status.code()), round_status.message()));
  }
  QueryOutcome out = service_->Execute(conn->session_id, bound->query,
                                       /*timeout_seconds=*/-1, &trace);
  if (!out.status.ok()) {
    Response err = Response::Error(StatusCodeToString(out.status.code()),
                                   out.status.message());
    if (out.status.code() == StatusCode::kResourceExhausted) {
      err.fields.emplace_back(
          "retry_after_ms",
          StrFormat("%lld", static_cast<long long>(
                                out.retry_after_seconds * 1000.0 + 0.5)));
    }
    return FormatResponse(err);
  }

  // Consumes a pipelined CANCEL: waits up to `wait_ms` for input (returning
  // the moment any arrives), drains it, and when the next complete request
  // line is CANCEL, eats it. A non-CANCEL line stays buffered for the normal
  // loop.
  auto cancel_requested = [&](int wait_ms) -> bool {
    if (wait_ms > 0 && conn->buffer.find('\n') == std::string::npos) {
      pollfd pfd{};
      pfd.fd = conn->fd;
      pfd.events = POLLIN;
      ::poll(&pfd, 1, wait_ms);
    }
    char chunk[4096];
    while (true) {
      ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n <= 0) break;
      conn->buffer.append(chunk, static_cast<size_t>(n));
    }
    size_t nl = conn->buffer.find('\n');
    if (nl == std::string::npos) return false;
    std::string next = conn->buffer.substr(0, nl);
    if (!next.empty() && next.back() == '\r') next.pop_back();
    if (!IsCancelLine(next)) return false;
    conn->buffer.erase(0, nl + 1);
    return true;
  };

  uint64_t sent = 0;
  bool cancelled = false;
  for (const ProgressiveStep& step : rounds) {
    // A partial (deadline-degraded) final answer voids the >=-final-width
    // guarantee, so only filter against clean finals.
    if (!out.partial && step.ci.half_width < out.ci.half_width) continue;
    // No wait before the first round — nothing has streamed yet, so the
    // client cannot be reacting. Between rounds, give an in-flight CANCEL
    // its round-trip.
    if (cancel_requested(sent == 0 ? 0 : options_.online_round_poll_ms)) {
      cancelled = true;
      break;
    }
    ProgressLine p;
    p.round = ++sent;
    p.rows_used = step.rows_used;
    p.estimate = step.ci.estimate;
    p.lo = step.ci.lower();
    p.hi = step.ci.upper();
    p.half_width = step.ci.half_width;
    p.level = step.ci.level;
    if (!SendAll(conn->fd, FormatProgressLine(p) + "\n")) {
      *quit = true;
      return std::string();
    }
  }

  Response resp;
  if (cancelled) {
    // The caller abandoned the stream: no estimate is reported (the computed
    // answer is discarded), just how far the stream got.
    resp.AddUint("online", 1);
    resp.AddUint("rounds", sent);
    resp.AddUint("cancelled", 1);
    return FormatResponse(resp);
  }
  resp.AddDouble("estimate", out.ci.estimate);
  resp.AddDouble("lo", out.ci.lower());
  resp.AddDouble("hi", out.ci.upper());
  resp.AddDouble("half_width", out.ci.half_width);
  resp.AddDouble("level", out.ci.level);
  resp.AddUint("cache_hit", out.cache_hit ? 1 : 0);
  resp.AddUint("partial", out.partial ? 1 : 0);
  if (out.partial) resp.AddUint("rows_used", out.partial_rows_used);
  resp.AddUint("pre", out.used_pre ? 1 : 0);
  resp.AddDouble("queue_ms", out.queue_seconds * 1000.0);
  resp.AddDouble("exec_ms", out.exec_seconds * 1000.0);
  if (service_->ingest() != nullptr) {
    resp.AddUint("generation", out.ingest_generation);
    resp.AddUint("delta_rows", out.delta_rows);
    resp.AddUint("folded", out.delta_folded ? 1 : 0);
  }
  resp.AddUint("online", 1);
  resp.AddUint("rounds", sent);
  return FormatResponse(resp);
}

void ServiceServer::HandleConnection(int fd) {
  auto session = service_->sessions().Open("");
  if (!session.ok()) {
    SendAll(fd, FormatResponse(Response::Error(
                    StatusCodeToString(session.status().code()),
                    session.status().message())) +
                    "\n");
    return;
  }
  ConnState conn;
  conn.fd = fd;
  conn.session_id = (*session)->id();

  char chunk[65536];
  bool quit = false;
  while (!quit) {
    // Simulated mid-session connection drop on the read side.
    if (auto fired = AQPP_FAILPOINT_EVAL("service/server/recv");
        fired.has_value() && fired->kind == fail::ActionKind::kReturnError) {
      break;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // disconnect or Stop()
    }
    conn.buffer.append(chunk, static_cast<size_t>(n));
    // A line over the cap can never complete into a servable request;
    // resyncing mid-payload is ambiguous, so reply once and close.
    if (conn.buffer.find('\n') == std::string::npos &&
        conn.buffer.size() > options_.max_line_bytes) {
      SendAll(fd, FormatResponse(Response::Error(
                      "InvalidArgument", "request line over the size cap")) +
                      "\n");
      break;
    }
    size_t nl;
    while (!quit && (nl = conn.buffer.find('\n')) != std::string::npos) {
      std::string line = conn.buffer.substr(0, nl);
      conn.buffer.erase(0, nl + 1);
      if (line.size() > options_.max_line_bytes) {
        SendAll(fd, FormatResponse(Response::Error(
                        "InvalidArgument", "request line over the size cap")) +
                        "\n");
        quit = true;
        break;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (TrimWhitespace(line).empty()) continue;
      std::string reply = HandleLine(&conn, line, &quit);
      // The online streaming path reports a broken peer with an empty reply
      // (it already sent everything it could).
      if (reply.empty()) continue;
      if (!SendAll(fd, reply + "\n")) {
        quit = true;
      }
    }
  }
  (void)service_->sessions().Close(conn.session_id);
}

size_t ServiceServer::active_connections() const {
  return connections_.open();
}

void ServiceServer::Stop() {
  running_.store(false);
  // Close before resetting so a racing accept() fails rather than blocking;
  // the slot is reset only after the accept thread can no longer read it.
  if (int fd = listen_fd_.exchange(-1); fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  connections_.ShutdownAndJoin();
}

}  // namespace aqpp
