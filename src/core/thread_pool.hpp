// A small FIFO thread pool: the parallel placement jobs, the sharded
// router's shard jobs and the daemon's session work.
//
// Workers take tasks from one shared queue in submission order.
// Synchronisation is one mutex + condition variables — the tasks this pool
// exists for run for milliseconds, so queue contention is noise and the
// simple scheme stays ThreadSanitizer-clean.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace na {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.  Tasks must not throw.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Scheduling counters for the metrics registry: how deep the queue
  /// got.  Snapshot under the pool lock — callable at any time, cheap
  /// enough to read once per run.
  struct Stats {
    int peak_queued = 0;  ///< high-water mark of waiting tasks
  };
  Stats stats() const;

  /// Tasks currently waiting in the queue — the live gauge the daemon's
  /// watchdog samples.
  int queue_depth() const;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Index of the calling thread within its pool, -1 off-pool.  Lets task
  /// code address per-worker state without locking.
  static int worker_index();

 private:
  void worker_loop(int index);

  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::vector<std::thread> workers_;
  int active_ = 0;
  bool stop_ = false;
  Stats stats_;
};

}  // namespace na
