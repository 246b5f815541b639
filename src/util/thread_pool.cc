#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace osum::util {

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(std::max<size_t>(num_threads, 1));
  for (size_t i = 0; i < std::max<size_t>(num_threads, 1); ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Stop(); }

void ThreadPool::Stop() {
  MutexLock stop_lock(stop_mu_);
  {
    MutexLock lock(mu_);
    if (stop_) return;  // already stopped; stop_mu_ ordered us after the join
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    // Post-stop the workers may already have drained and exited; enqueueing
    // would drop the task on the floor without anyone noticing. Refuse
    // instead, and let the caller deliver its completion another way.
    if (stop_) return false;
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
  return true;
}

size_t ThreadPool::HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Explicit predicate loop (not the lambda overload) so the guarded
      // reads stay inside this annotated scope.
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace osum::util
