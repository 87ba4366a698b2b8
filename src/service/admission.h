// Admission control: a bounded, session-fair queue in front of the engine.
//
// The engine's scans already fan out across cores (the global ThreadPool),
// so the service must not oversubscribe the machine by running every request
// at once — and it must not queue without bound either, or a burst turns
// into unbounded latency. AdmissionController therefore:
//
//  * runs a fixed pool of dedicated worker threads (the fork-join ThreadPool
//    in common/ is the wrong shape here: its Run() blocks the caller, while
//    admission needs fire-and-signal tasks with its own queue discipline);
//  * bounds the queue globally and per session, rejecting overflow with
//    ResourceExhausted plus a retry-after hint derived from an EWMA of
//    observed service times — explicit backpressure instead of a hang;
//  * drains sessions round-robin, so one chatty client cannot starve the
//    others (per-session FIFO, cross-session fairness);
//  * on Stop(), cancels whatever is still queued and runs it anyway — every
//    job's promise is fulfilled (with Cancelled), so no waiter is left
//    hanging.
//
// Deadlines are not enforced here: the job's CancellationToken carries them
// into the engine, which checks cooperatively (core/cancellation.h). The
// controller only hands the token to Stop()'s drain path.

#ifndef AQPP_SERVICE_ADMISSION_H_
#define AQPP_SERVICE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/cancellation.h"

namespace aqpp {

struct AdmissionOptions {
  size_t num_workers = 2;
  // Total queued (not yet running) requests across all sessions.
  size_t max_queue_depth = 64;
  // Queued requests per session; the fairness bound.
  size_t max_per_session = 16;
  // Lower bound on the retry-after hint.
  double retry_floor_seconds = 0.01;
  // Shared-scan batch formation. A worker that pops a job with a non-empty
  // batch_key gathers every queued same-key job (across sessions) into one
  // batch and hands them all to the popped job's run_batch. A popped job
  // with no same-key company runs solo at once: there is no collection
  // window, because batching pays only under backlog, and a backlog batches
  // on its own.
  // Master switch: false degrades every job to solo run() (ablation).
  bool enable_batching = true;
  // Test seam: invoked by a worker right before it runs a job.
  std::function<void()> worker_hook;
};

struct AdmissionStats {
  size_t queue_depth = 0;
  size_t peak_queue_depth = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  // Jobs cancelled-and-run by Stop()'s drain.
  uint64_t drained = 0;
  // Multi-member batches formed by batch-key grouping, and the total member
  // jobs (leaders included) those batches absorbed.
  uint64_t batches_formed = 0;
  uint64_t batch_members = 0;
  double ewma_service_seconds = 0;
};

class AdmissionController {
 public:
  struct Job {
    // Cancelled by Stop() before the drain runs the job; may be null.
    std::shared_ptr<CancellationToken> token;
    // Must not throw; fulfills whatever promise the submitter waits on.
    // Every job must work standalone through run() — the solo path, the
    // Stop() drain, and batching-disabled mode all use it.
    std::function<void()> run;
    // Batch formation: jobs sharing a non-empty key may be grouped (across
    // sessions) into one batch. Empty key = never batched. Keys must encode
    // everything needed for the batch to share one pass (the service uses
    // the target table's identity).
    std::string batch_key;
    // Runs the whole formed batch (this job first, then every gathered
    // same-key job) and must fulfill every member's promise, isolating
    // per-member failures. Only the popped leader's run_batch is invoked.
    // Null degrades the job to solo run() even when batch_key is set.
    std::function<void(std::vector<Job>&&)> run_batch;
    // Opaque per-job context for run_batch (the service parks its canonical
    // query / promise bundle here); never touched by the controller.
    std::shared_ptr<void> batch_payload;
  };

  explicit AdmissionController(AdmissionOptions options);
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Enqueues `job` for `session_id`. On overflow returns ResourceExhausted
  // and, when `retry_after_seconds` is non-null, a backoff hint; the job is
  // NOT run in that case. FailedPrecondition after Stop().
  Status Submit(uint64_t session_id, Job job,
                double* retry_after_seconds = nullptr);

  // Stops the workers, then cancels and runs every still-queued job on the
  // calling thread. Idempotent.
  void Stop();

  AdmissionStats stats() const;

 private:
  void WorkerLoop();
  double RetryAfterLocked() const;
  // Extracts every queued job whose batch_key == key into *batch, fixing the
  // round-robin and depth bookkeeping. Caller holds mu_.
  void CollectBatchLocked(const std::string& key, std::vector<Job>* batch);

  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  size_t total_queued_ = 0;
  std::unordered_map<uint64_t, std::deque<Job>> queues_;
  // Sessions with pending work, in service order (rotated on each pop).
  std::deque<uint64_t> round_robin_;
  // Queued (not yet popped) jobs per non-empty batch_key; lets a popping
  // worker check for same-key company in O(1).
  std::unordered_map<std::string, size_t> batchable_queued_;
  AdmissionStats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace aqpp

#endif  // AQPP_SERVICE_ADMISSION_H_
