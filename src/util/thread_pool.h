// Fixed-size FIFO worker pool.
//
// One user: serve::QueryService, whose Submit runs each cache miss as one
// pool task. Queries are embarrassingly parallel against shared immutable
// structures, so a FIFO pool is all that is needed. Tasks must not throw —
// there is no cross-thread exception channel.
#ifndef OSUM_UTIL_THREAD_POOL_H_
#define OSUM_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace osum::util {

/// Fixed-size FIFO thread pool. Stop() (or destruction) drains
/// already-submitted tasks, then joins the workers; submission after the
/// pool stopped has defined, non-silent behavior (see Submit).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `task` for execution on some worker. `task` must not throw.
  /// Returns true when enqueued. After Stop() has begun the task is NOT
  /// enqueued (the workers may already be gone, so a late push would be
  /// silently dropped) — it is destroyed unrun and Submit returns false,
  /// so callers that must deliver a completion can do so themselves.
  bool Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Stops accepting new work, drains every already-enqueued task, then
  /// joins the workers. Idempotent and safe to call concurrently (late
  /// callers block until the first call finishes joining). Must not be
  /// called from a task running on this pool (self-join). The destructor
  /// calls it.
  void Stop() EXCLUDES(stop_mu_, mu_);

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows it to report 0).
  static size_t HardwareThreads();

 private:
  void WorkerLoop() EXCLUDES(mu_);

  /// Serializes Stop() callers through the join phase, so "Stop returned"
  /// always means "workers joined" — even for the loser of a Stop race.
  /// Always taken before mu_.
  Mutex stop_mu_ ACQUIRED_BEFORE(mu_);
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  /// Immutable after the constructor returns (only Stop joins through it,
  /// serialized by stop_mu_); not guarded.
  std::vector<std::thread> workers_;
};

}  // namespace osum::util

#endif  // OSUM_UTIL_THREAD_POOL_H_
