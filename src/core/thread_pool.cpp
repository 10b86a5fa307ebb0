#include "core/thread_pool.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace na {
namespace {
thread_local int tl_worker_index = -1;
}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(task));
    const int queued = static_cast<int>(queue_.size());
    stats_.peak_queued = std::max(stats_.peak_queued, queued);
    NA_TRACE_COUNTER("pool.queue", "queued", queued);
  }
  work_cv_.notify_one();
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

int ThreadPool::queue_depth() const {
  std::lock_guard lock(mu_);
  return static_cast<int>(queue_.size());
}

int ThreadPool::worker_index() { return tl_worker_index; }

void ThreadPool::worker_loop(int index) {
  tl_worker_index = index;
  std::unique_lock lock(mu_);
  for (;;) {
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      NA_TRACE_COUNTER("pool.queue", "queued", queue_.size());
      ++active_;
      lock.unlock();
      task();
      lock.lock();
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
      continue;
    }
    if (stop_) break;
    work_cv_.wait(lock);
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

}  // namespace na
