// The repository's one fork-join mechanism: a team of the calling thread
// plus helper threads that runs fn(i) for every index of a run and returns
// when all have run. sim::ParallelSimulation runs its shards' windows on
// it, serving::MilpAllocator an allocation step's budget splits, and the
// figure sweeps their independent experiments.
//
// Each run, member m of a T-member team first runs its own indices (m,
// m + T, m + 2T, ...), so work that repeats run after run (a shard's
// window) stays in one core's cache, and then claims any index no member
// has started, so a late member delays nobody. Runs can be short (a
// simulation window is about a millisecond of host time), so between runs
// a helper, and the caller waiting for the last index, spins for up to a
// millisecond before it blocks: a thread that slept at every run would pay
// an OS wake-up each time, and on a virtual machine that cost depends on
// what the host is doing.
//
// Which member runs an index depends on scheduling, so fn must give the
// same result for an index whichever thread runs it; a fixed index order of
// side effects (e.g. merging per-index outputs) belongs after run().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace loki {

class Team {
 public:
  /// A team of `members` threads: the calling thread plus members - 1
  /// helper threads, started here (0 = hardware concurrency). If a helper
  /// fails to start, the ones that did are joined and the error rethrown.
  explicit Team(std::size_t members);
  ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Members, the calling thread included.
  std::size_t size() const { return members_; }

  /// Runs fn(i) for every i in [0, n) on the team and returns when all have
  /// run. If some fn(i) throw, every index still runs, and the exception of
  /// the lowest such index is rethrown. Runs come from one thread at a time.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void start_helpers();
  /// Stops and joins the helpers.
  void stop_helpers();
  /// Member `member` claims and runs the indices of run `epoch`, its own
  /// first, until none is left.
  void run_claimed(std::size_t member, std::uint32_t epoch);
  void helper_loop(std::size_t member, std::uint32_t seen);

  std::size_t members_ = 1;
  // Runs are numbered by `epoch_`; a member claims index i for run e by
  // moving claimed_[i] from e - 1 to e, and the caller sets claimed_[i] to
  // e - 1 before it publishes run e. A member that lags behind, still in an
  // earlier run's claim loop, therefore never claims an index of a later
  // run, and it reads fn_ and errors_ only after a claim succeeds. The
  // claim array only grows with every helper joined. Members read epoch_,
  // done_ and stop_ while they spin, but these change only under mu_, so a
  // member that stopped spinning and blocks misses no change.
  std::unique_ptr<std::atomic<std::uint32_t>[]> claimed_;
  std::size_t capacity_ = 0;  // entries in claimed_ and errors_
  std::vector<std::exception_ptr> errors_;  // per index, this run
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::size_t> n_{0};
  std::mutex mu_;
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::size_t> done_{0};  // indices finished this run
  std::atomic<bool> stop_{false};
  std::condition_variable work_cv_;  // helpers: a new run, or stop_
  std::condition_variable done_cv_;  // caller: done_ reached n_
  std::vector<std::thread> helpers_;  // last: they use everything above
};

}  // namespace loki
