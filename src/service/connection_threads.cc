#include "service/connection_threads.h"

#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace aqpp {

bool ConnectionThreads::Start(int fd, size_t max_open,
                              std::function<void(int)> handler) {
  std::vector<std::thread> reaped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t id : finished_) {
      auto it = threads_.find(id);
      reaped.push_back(std::move(it->second));
      threads_.erase(it);
    }
    finished_.clear();
  }
  // A finished thread's last step was recording its id, so these joins
  // return as soon as it unwinds.
  for (std::thread& t : reaped) t.join();

  std::lock_guard<std::mutex> lock(mu_);
  if (open_fds_.size() >= max_open) return false;
  const uint64_t id = next_id_++;
  open_fds_.insert(fd);
  // Inserted under mu_, which the thread needs before it can report itself
  // finished: the id is always in threads_ by the time it is in finished_.
  threads_.emplace(id, std::thread([this, id, fd, h = std::move(handler)] {
    h(fd);
    std::lock_guard<std::mutex> done(mu_);
    open_fds_.erase(fd);
    ::close(fd);
    finished_.push_back(id);
  }));
  return true;
}

size_t ConnectionThreads::open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_fds_.size();
}

void ConnectionThreads::ShutdownAndJoin() {
  std::unordered_map<uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(threads_);
  }
  for (auto& [id, t] : threads) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  finished_.clear();
}

}  // namespace aqpp
