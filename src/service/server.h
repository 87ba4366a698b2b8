// ServiceServer: a line-protocol TCP front end over QueryService.
//
// One accept thread plus one thread per connection (connections are bounded;
// the per-request concurrency cap is the admission controller's job, not
// the socket layer's). Each connection is one session: opened on accept,
// closed on QUIT / disconnect. SQL arrives via the QUERY verb, is bound
// against the catalog, and is executed through QueryService::Execute — so
// every protocol client goes through admission, deadlines, and the result
// cache exactly like an in-process caller.
//
// Binding to port 0 picks an ephemeral port; port() reports the real one
// (how the tests avoid collisions).

#ifndef AQPP_SERVICE_SERVER_H_
#define AQPP_SERVICE_SERVER_H_

#include <atomic>
#include <string>
#include <thread>

#include "common/status.h"
#include "service/connection_threads.h"
#include "service/service.h"
#include "storage/table.h"

namespace aqpp {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral
  int backlog = 64;
  // Above this, new connections get one ERR line and are closed.
  size_t max_connections = 64;
  // A single request line over this is a protocol violation: the connection
  // gets one ERR line and is closed (resyncing inside an oversized INGEST
  // payload is not worth the ambiguity). Sized to fit the largest INGEST
  // line (kMaxIngestWireBytes) plus verb/header slack.
  size_t max_line_bytes = (8u << 20) + 4096;
  // Online-mode streams wait this long for pipelined input between PROGRESS
  // rounds (returning early the moment any arrives), so a client that reads
  // a round and fires CANCEL is honored before the stream runs out from
  // under it. Rounds are precomputed — without the wait they would drain at
  // wire speed and a mid-stream CANCEL could never win the race. 0 disables.
  int online_round_poll_ms = 10;
};

class ServiceServer {
 public:
  // `service` and `catalog` are borrowed and must outlive the server.
  ServiceServer(QueryService* service, const Catalog* catalog,
                ServerOptions options = {});
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  // Binds, listens, and starts the accept thread.
  Status Start();

  // Unblocks every connection and joins all threads. Idempotent.
  void Stop();

  // The bound port (valid after Start()).
  int port() const { return port_; }
  size_t active_connections() const;

 private:
  // Per-connection state threaded through HandleLine: the session, the
  // answer mode (SET MODE online|oneshot), and the unconsumed input buffer —
  // which the online streaming path inspects between PROGRESS lines so a
  // pipelined CANCEL is honored deterministically.
  struct ConnState {
    int fd = -1;
    uint64_t session_id = 0;
    bool online = false;
    std::string buffer;
  };

  void AcceptLoop();
  void HandleConnection(int fd);
  std::string HandleLine(ConnState* conn, const std::string& line, bool* quit);
  // Online-mode QUERY: streams PROGRESS rounds (polling for CANCEL between
  // them), then returns the final reply line.
  std::string HandleOnlineQuery(ConnState* conn, const std::string& sql,
                                bool* quit);

  QueryService* service_;
  const Catalog* catalog_;
  ServerOptions options_;
  // Atomic: Stop() resets it from the caller's thread while AcceptLoop()
  // reads it for accept(); the fd value itself stays valid until the accept
  // thread is joined because Stop() closes before resetting.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  ConnectionThreads connections_;
};

}  // namespace aqpp

#endif  // AQPP_SERVICE_SERVER_H_
