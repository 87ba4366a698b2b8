// CoordinatorServer: the client-facing TCP front of a ShardCoordinator.
// Speaks the same line protocol as the single-engine service — QUERY <sql>
// returns the familiar estimate/lo/hi/half_width/level fields — so existing
// ServiceClient callers work unchanged against a sharded deployment. Extra
// fields: degraded=0|1 (some shards missing, CI widened; pairs with
// RetryPolicy::retry_degraded on the client), shards, shards_answered.
//
// SQL is bound against a schema catalog (column names + string
// dictionaries); the catalog table carries no rows — the data lives on the
// workers.

#ifndef AQPP_SHARD_COORDINATOR_SERVER_H_
#define AQPP_SHARD_COORDINATOR_SERVER_H_

#include <atomic>
#include <string>
#include <thread>

#include "common/status.h"
#include "service/connection_threads.h"
#include "shard/coordinator.h"
#include "storage/table.h"

namespace aqpp {
namespace shard {

struct CoordinatorServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral
  int backlog = 64;
  size_t max_connections = 64;
};

class CoordinatorServer {
 public:
  // `coordinator` (already Connect()ed) and `catalog` are borrowed and must
  // outlive the server.
  CoordinatorServer(ShardCoordinator* coordinator, const Catalog* catalog,
                    CoordinatorServerOptions options = {});
  ~CoordinatorServer();

  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  Status Start();
  void Stop();

  int port() const { return port_; }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  std::string HandleLine(const std::string& line, bool* quit);

  ShardCoordinator* coordinator_;
  const Catalog* catalog_;
  CoordinatorServerOptions options_;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  ConnectionThreads connections_;
};

}  // namespace shard
}  // namespace aqpp

#endif  // AQPP_SHARD_COORDINATOR_SERVER_H_
