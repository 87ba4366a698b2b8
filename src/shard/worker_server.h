// WorkerServer: the line-protocol TCP front end of one shard worker
// (aqpp-shardd). Mirrors ServiceServer's socket structure (one accept
// thread, one thread per connection, ephemeral port support) but speaks the
// shard verbs:
//
//   PING              liveness
//   HELLO [name]      no sessions here; echoes shard identity
//   SHARDINFO         shard=<i> shards=<n> rows=<r> row_begin=<b>
//                     sample_rows=<s> domains=<col:min:max,...>
//   PARTIAL <spec>    computes the requested partial views (see
//                     src/shard/partial.h) and returns them on one line
//   INGEST <payload>  appends a wire-encoded row batch to the worker's
//                     delta (requires ShardWorker::EnableIngest); replies
//                     appended= generation= delta_rows= total_rows=
//   METRICS           Prometheus exposition (same framing as the service)
//   QUIT              closes the connection
//
// Chaos seams: shard/worker/recv and shard/worker/send failpoints drop the
// connection mid-session, the deterministic stand-ins for a killed worker.

#ifndef AQPP_SHARD_WORKER_SERVER_H_
#define AQPP_SHARD_WORKER_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"
#include "service/connection_threads.h"
#include "shard/worker.h"

namespace aqpp {
namespace shard {

class PartialBatcher;

struct WorkerServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral
  int backlog = 64;
  size_t max_connections = 64;
  // Fuse concurrent PARTIAL requests (one per connection thread) into single
  // ShardWorker::PartialBatch calls: requests that arrive while a pass runs
  // form the next one, and a lone request runs at once. There is no
  // collection window — batching pays only under backlog, and a backlog
  // batches on its own. False is the per-request ablation baseline; answers
  // are bit-identical either way.
  bool enable_batching = true;
};

class WorkerServer {
 public:
  // `worker` is borrowed and must outlive the server.
  WorkerServer(const ShardWorker* worker, WorkerServerOptions options = {});
  ~WorkerServer();

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  Status Start();
  void Stop();

  int port() const { return port_; }
  size_t active_connections() const;

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  std::string HandleLine(const std::string& line, bool* quit);

  const ShardWorker* worker_;
  WorkerServerOptions options_;
  std::unique_ptr<PartialBatcher> batcher_;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  ConnectionThreads connections_;
};

}  // namespace shard
}  // namespace aqpp

#endif  // AQPP_SHARD_WORKER_SERVER_H_
