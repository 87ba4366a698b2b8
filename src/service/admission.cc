#include "service/admission.h"

#include <algorithm>

#include "common/clock.h"
#include "common/failpoint.h"
#include "obs/metrics.h"

namespace aqpp {

namespace {

struct AdmissionMetrics {
  obs::Gauge* queue_depth;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* completed;
  static const AdmissionMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static const AdmissionMetrics m = {
        reg.GetGauge("aqpp_admission_queue_depth", "",
                     "Requests currently waiting in the admission queue."),
        reg.GetCounter("aqpp_admission_admitted_total", "",
                       "Requests admitted to the worker queue."),
        reg.GetCounter("aqpp_admission_rejected_total", "",
                       "Requests rejected with retry-after backpressure."),
        reg.GetCounter("aqpp_admission_completed_total", "",
                       "Requests completed by admission workers."),
    };
    return m;
  }
};

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)) {
  size_t n = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AdmissionController::~AdmissionController() { Stop(); }

double AdmissionController::RetryAfterLocked() const {
  // Rough drain time of the current backlog: one EWMA service time per
  // queued request, divided across the workers, plus one for the retrier.
  double per_job = stats_.ewma_service_seconds;
  double backlog = static_cast<double>(total_queued_ + 1) /
                   static_cast<double>(workers_.size());
  return std::max(options_.retry_floor_seconds, per_job * backlog);
}

Status AdmissionController::Submit(uint64_t session_id, Job job,
                                   double* retry_after_seconds) {
  // Injected admission failure: rejected requests still carry a retry-after
  // hint when the injected code is the backpressure one, so clients exercise
  // their real retry loop.
  if (auto fired = AQPP_FAILPOINT_EVAL("service/admission/enqueue");
      fired.has_value() && fired->kind == fail::ActionKind::kReturnError) {
    if (retry_after_seconds != nullptr &&
        fired->error.code() == StatusCode::kResourceExhausted) {
      std::lock_guard<std::mutex> lock(mu_);
      *retry_after_seconds = RetryAfterLocked();
      ++stats_.rejected;
    }
    return fired->error;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("admission controller stopped");
    }
    std::deque<Job>& queue = queues_[session_id];
    if (total_queued_ >= options_.max_queue_depth ||
        queue.size() >= options_.max_per_session) {
      if (retry_after_seconds != nullptr) {
        *retry_after_seconds = RetryAfterLocked();
      }
      ++stats_.rejected;
      AdmissionMetrics::Get().rejected->Increment();
      if (queue.empty()) queues_.erase(session_id);
      return Status::ResourceExhausted(
          total_queued_ >= options_.max_queue_depth
              ? "request queue full"
              : "per-session queue full");
    }
    if (queue.empty()) round_robin_.push_back(session_id);
    const bool batchable = !job.batch_key.empty();
    if (batchable) ++batchable_queued_[job.batch_key];
    queue.push_back(std::move(job));
    ++total_queued_;
    ++stats_.admitted;
    stats_.queue_depth = total_queued_;
    stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, total_queued_);
    AdmissionMetrics::Get().admitted->Increment();
    AdmissionMetrics::Get().queue_depth->Set(
        static_cast<int64_t>(total_queued_));
  }
  cv_.notify_one();
  return Status::OK();
}

void AdmissionController::CollectBatchLocked(const std::string& key,
                                             std::vector<Job>* batch) {
  auto counted = batchable_queued_.find(key);
  if (counted == batchable_queued_.end()) return;
  size_t taken = 0;
  for (auto it = queues_.begin(); it != queues_.end();) {
    std::deque<Job>& queue = it->second;
    for (auto j = queue.begin(); j != queue.end();) {
      if (j->batch_key == key) {
        batch->push_back(std::move(*j));
        j = queue.erase(j);
        ++taken;
      } else {
        ++j;
      }
    }
    if (queue.empty()) {
      // Keep the round-robin invariant: a session appears iff its queue is
      // non-empty.
      for (auto r = round_robin_.begin(); r != round_robin_.end(); ++r) {
        if (*r == it->first) {
          round_robin_.erase(r);
          break;
        }
      }
      it = queues_.erase(it);
    } else {
      ++it;
    }
  }
  total_queued_ -= taken;
  stats_.queue_depth = total_queued_;
  AdmissionMetrics::Get().queue_depth->Set(static_cast<int64_t>(total_queued_));
  batchable_queued_.erase(counted);
}

void AdmissionController::WorkerLoop() {
  for (;;) {
    Job job;
    std::vector<Job> followers;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || total_queued_ > 0; });
      if (stopping_) return;  // leftovers are drained by Stop()
      uint64_t sid = round_robin_.front();
      round_robin_.pop_front();
      auto it = queues_.find(sid);
      job = std::move(it->second.front());
      it->second.pop_front();
      --total_queued_;
      stats_.queue_depth = total_queued_;
      AdmissionMetrics::Get().queue_depth->Set(
          static_cast<int64_t>(total_queued_));
      if (it->second.empty()) {
        queues_.erase(it);
      } else {
        round_robin_.push_back(sid);  // fairness: back of the rotation
      }
      const bool batchable = options_.enable_batching &&
                             !job.batch_key.empty() &&
                             job.run_batch != nullptr;
      if (!job.batch_key.empty()) {
        auto cnt = batchable_queued_.find(job.batch_key);
        if (cnt != batchable_queued_.end() && --cnt->second == 0) {
          batchable_queued_.erase(cnt);
        }
      }
      if (batchable) {
        // Same-key backlog joins the popped job; a lone job runs solo at
        // once, since batching pays only when a backlog exists.
        CollectBatchLocked(job.batch_key, &followers);
        if (!followers.empty()) {
          ++stats_.batches_formed;
          stats_.batch_members += followers.size() + 1;
        }
      }
    }
    if (options_.worker_hook) options_.worker_hook();
    // Latency injection here stalls the worker between dequeue and execute —
    // the window where a slow engine pushes queued requests past deadline.
    AQPP_FAILPOINT("service/admission/worker");
    SteadyTime start = SteadyNow();
    const size_t jobs_run = followers.size() + 1;
    if (!followers.empty()) {
      std::vector<Job> batch;
      batch.reserve(jobs_run);
      batch.push_back(std::move(job));
      for (Job& f : followers) batch.push_back(std::move(f));
      // The leader's run_batch owns every member's promise; grab it before
      // the leader is moved into the batch vector's first slot.
      auto run_batch = batch.front().run_batch;
      run_batch(std::move(batch));
    } else {
      job.run();
    }
    double seconds = SecondsBetween(start, SteadyNow());
    {
      std::lock_guard<std::mutex> lock(mu_);
      // EWMA tracks per-job service time; a fused batch amortizes one pass
      // across its members.
      double per_job = seconds / static_cast<double>(jobs_run);
      stats_.ewma_service_seconds =
          stats_.ewma_service_seconds == 0
              ? per_job
              : 0.8 * stats_.ewma_service_seconds + 0.2 * per_job;
      stats_.completed += jobs_run;
    }
    AdmissionMetrics::Get().completed->Increment(jobs_run);
  }
}

void AdmissionController::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Fulfill every queued job with its cancellation path so no submitter
  // waits forever on a promise that nobody will set.
  std::vector<Job> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [sid, queue] : queues_) {
      for (Job& j : queue) leftovers.push_back(std::move(j));
    }
    queues_.clear();
    round_robin_.clear();
    batchable_queued_.clear();
    total_queued_ = 0;
    stats_.queue_depth = 0;
    AdmissionMetrics::Get().queue_depth->Set(0);
  }
  for (Job& j : leftovers) {
    if (j.token != nullptr) j.token->Cancel();
    j.run();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.drained;
  }
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace aqpp
