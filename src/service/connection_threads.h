// ConnectionThreads: the per-connection thread bookkeeping shared by the
// three line-protocol servers (ServiceServer, shard::WorkerServer,
// shard::CoordinatorServer).
//
// Each accepted socket gets its own thread. A thread whose connection has
// ended is joined by the next Start() (the accept loop), not at shutdown, so
// a server that sees one short connection per request — the coordinator
// opens a fresh one per PARTIAL — holds a bounded number of threads and
// stacks instead of one per request ever served.
//
// The socket is owned here once Start() accepts it: the handler reads and
// writes it, and the wrapper closes it after the handler returns, under the
// same lock that removes it from the open set. So ShutdownAll() never
// touches a descriptor number the kernel has already handed to a newer
// connection.

#ifndef AQPP_SERVICE_CONNECTION_THREADS_H_
#define AQPP_SERVICE_CONNECTION_THREADS_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace aqpp {

class ConnectionThreads {
 public:
  ConnectionThreads() = default;
  ~ConnectionThreads() { ShutdownAndJoin(); }

  ConnectionThreads(const ConnectionThreads&) = delete;
  ConnectionThreads& operator=(const ConnectionThreads&) = delete;

  // Joins the threads of connections that have ended, then runs
  // handler(fd) on a new thread and takes ownership of `fd`. Returns false
  // without starting anything (the caller still owns `fd`) when
  // `max_open` connections are already open.
  bool Start(int fd, size_t max_open, std::function<void(int)> handler);

  size_t open() const;

  // Shuts every open socket down (unblocking its recv()) and joins every
  // thread. Call only once no further Start() can happen.
  void ShutdownAndJoin();

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::unordered_set<int> open_fds_;
  std::unordered_map<uint64_t, std::thread> threads_;
  // Ids of threads whose handler returned; their threads are done but not
  // yet joined.
  std::vector<uint64_t> finished_;
};

}  // namespace aqpp

#endif  // AQPP_SERVICE_CONNECTION_THREADS_H_
