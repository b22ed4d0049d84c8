// Fixed-size thread pool used to parallelize experiment sweeps (e.g. the SLO
// sensitivity sweep runs one full simulation per SLO value on its own core)
// and the planner's parallel split solves. (sim::ParallelSimulation runs its
// shards on a team of its own: its windows are too short for a task queue
// whose idle workers sleep.)
//
// Each individual simulator remains single-threaded and deterministic;
// parallelism lives between experiments or between shards, which keeps
// results bit-reproducible while still saturating the machine.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace loki {

class ThreadPool {
 public:
  /// Starts `threads` workers (default: hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` and returns a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all done.
  /// Exceptions from tasks propagate (the first one is rethrown).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace loki
