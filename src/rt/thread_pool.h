// ThreadPool: fixed-size worker pool over a bounded MPMC queue.
//
// This is the real-thread analogue of the simulator's ServiceStation: the
// middleware runtime dispatches remote I/O and prediction work here
// instead of scheduling simulated events. Two task classes implement the
// backpressure policy:
//
//   kClient     — work on a client's critical path (remote reads/writes).
//                 Never dropped: Submit blocks until queue space frees.
//   kPredictive — optional work (predictive executions, ADQ reloads).
//                 Rejected as soon as the queue reaches the predictive
//                 watermark, mirroring the shed-predictions-first WAN
//                 policy: when the system falls behind, speculation is the
//                 first thing to go.
//
// Each worker records the queue wait (enqueue -> dequeue, wall time) of
// every task it runs into a per-thread histogram, so the throughput bench
// can report where time goes as worker count scales. The same measurement
// can be fed to an external observer (sojourn_callback) — the brownout
// controller's CoDel-style control signal (DESIGN.md Section 12).
//
// With fair_queueing enabled the feed switches from one global FIFO to a
// SessionFairQueue: per-session lanes drained round-robin, so one hot
// session's backlog cannot starve other sessions' client queries. The
// default (off) keeps the original MpmcQueue path byte-identical.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/observability.h"
#include "rt/fair_queue.h"
#include "rt/mpmc_queue.h"

namespace apollo::rt {

enum class TaskClass : uint8_t {
  kClient,      // client-critical; never shed
  kPredictive,  // speculative; shed under backpressure
};

struct ThreadPoolConfig {
  int num_threads = 4;
  size_t queue_capacity = 256;
  /// Queue depth at (or above) which kPredictive submissions are rejected.
  /// Defaults to half the capacity.
  size_t predictive_watermark = 0;
  /// Per-session fair queueing: tasks are drained round-robin across the
  /// session keys passed to Submit instead of global-FIFO. Off by default
  /// (byte-identical legacy behavior).
  bool fair_queueing = false;
  /// Called once per executed task with its queue sojourn (enqueue ->
  /// dequeue wall time, microseconds). The brownout controller's input
  /// signal; may be empty.
  std::function<void(int64_t)> sojourn_callback = nullptr;
};

class ThreadPool {
 public:
  /// `obs` may be null (a private bundle is created); `metric_prefix`
  /// qualifies the pool's instruments (e.g. "rt.pool.").
  explicit ThreadPool(ThreadPoolConfig config,
                      obs::Observability* obs = nullptr,
                      const std::string& metric_prefix = "rt.pool.");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Submits a task. kClient blocks until space; kPredictive is rejected
  /// (returns false) when the queue is at the watermark or full. Returns
  /// false after Shutdown. `session` keys the fair-queueing lane (ignored
  /// unless fair_queueing is on).
  bool Submit(TaskClass klass, std::function<void()> fn) {
    return Submit(klass, /*session=*/0, std::move(fn));
  }
  bool Submit(TaskClass klass, uint64_t session, std::function<void()> fn);

  /// Drains outstanding tasks and joins the workers. Idempotent; also run
  /// by the destructor.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }
  size_t queue_depth() const {
    return fair_ != nullptr ? fair_->size() : queue_.size();
  }
  size_t predictive_watermark() const {
    return config_.predictive_watermark;
  }
  /// Tasks submitted and not yet finished. A task counts from before it
  /// is queued until its fn() has returned, so work a running task hands
  /// on (raising another count first) is never invisible.
  int64_t pending() const { return pending_.load(std::memory_order_seq_cst); }
  /// Submission attempts so far (monotonic, rejected ones included). A
  /// caller that reads it before and after other counts can tell whether a
  /// task entered the pool in between.
  uint64_t submitted() const {
    return submitted_.load(std::memory_order_seq_cst);
  }
  uint64_t rejected_predictive() const {
    return rejected_predictive_->Value();
  }

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop(int index);
  /// Pops from whichever feed is active; false when closed and drained.
  bool PopTask(Task* out) {
    return fair_ != nullptr ? fair_->Pop(out) : queue_.Pop(out);
  }

  ThreadPoolConfig config_;
  MpmcQueue<Task> queue_;
  /// Non-null iff fair_queueing is on; replaces queue_ as the feed.
  std::unique_ptr<SessionFairQueue<Task>> fair_;
  std::vector<std::thread> workers_;
  std::atomic<int64_t> pending_{0};
  std::atomic<uint64_t> submitted_{0};
  bool shut_down_ = false;

  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  obs::Counter* submitted_client_;
  obs::Counter* submitted_predictive_;
  obs::Counter* rejected_predictive_;
  /// Per-worker queue-wait (enqueue -> dequeue) wall-time histograms,
  /// "<prefix>worker<i>.queue_wait_wall_us".
  std::vector<obs::HistogramMetric*> queue_wait_;
};

}  // namespace apollo::rt
