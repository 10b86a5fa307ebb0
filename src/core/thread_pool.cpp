#include "core/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace na {
namespace {
thread_local int tl_worker_index = -1;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
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

void ThreadPool::sample_wait(const Task& task) const {
  if (task.enqueue_ns == 0) return;
  obs::Histogram* h = wait_hist_.load(std::memory_order_relaxed);
  if (h == nullptr) return;
  const std::uint64_t now = steady_ns();
  const std::uint64_t wait = now > task.enqueue_ns ? now - task.enqueue_ns : 0;
  h->record(static_cast<long long>(wait / 1000));  // histogram unit: µs
}

void ThreadPool::submit(std::function<void()> task) {
  Task t{std::move(task), 0};
  if (wait_hist_.load(std::memory_order_relaxed) != nullptr) {
    t.enqueue_ns = steady_ns();
  }
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(t));
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

void ThreadPool::set_queue_wait_histogram(obs::Histogram* h) {
  wait_hist_.store(h, std::memory_order_relaxed);
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
      Task task = std::move(queue_.front());
      queue_.pop_front();
      sample_wait(task);
      NA_TRACE_COUNTER("pool.queue", "queued", queue_.size());
      ++active_;
      lock.unlock();
      task.fn();
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
