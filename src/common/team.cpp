#include "common/team.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace loki {

namespace {

/// How long a team member spins before it blocks. It covers the usual gap
/// between runs (a simulation barrier plus one shard's window, or the
/// selection between two allocation steps), and bounds the CPU a member
/// burns when the gap is long (a replan, or the end of a sweep).
constexpr std::chrono::microseconds kSpinBudget{1000};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until ready() holds: spins for up to kSpinBudget, then blocks on
/// `cv`. Whoever changes what ready() reads must do it under `mu`, and
/// notify `cv` after.
template <typename Ready>
void await(std::mutex& mu, std::condition_variable& cv, Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned i = 1; !ready(); ++i) {
    cpu_relax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, ready);
      return;
    }
  }
}

}  // namespace

Team::Team(std::size_t members)
    : members_(members > 0 ? members
                           : std::max<std::size_t>(
                                 1, std::thread::hardware_concurrency())) {}

Team::~Team() { stop_helpers(); }

void Team::start_helpers() {
  stop_.store(false, std::memory_order_relaxed);
  const std::uint32_t seen = epoch_.load(std::memory_order_relaxed);
  helpers_.reserve(members_ - 1);
  try {
    for (std::size_t m = 1; m < members_; ++m) {
      helpers_.emplace_back([this, m, seen]() { helper_loop(m, seen); });
    }
  } catch (...) {
    stop_helpers();  // a thread failed to start: join the ones that did
    throw;
  }
}

void Team::stop_helpers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
  helpers_.clear();
}

void Team::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (members_ == 1) {
    std::exception_ptr first;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }
  if (n == 0) return;
  if (n > capacity_) {
    // Helpers start with the first run. A helper may still be leaving an
    // earlier run's claim loop, so a larger claim array replaces the old
    // one only with every helper joined.
    stop_helpers();
    claimed_ = std::make_unique<std::atomic<std::uint32_t>[]>(n);
    errors_.resize(n);
    capacity_ = n;
    start_helpers();
  }
  // Everything the caller wrote before (fn's captures, the claim reset) is
  // published by the release store of the epoch; a helper acquires it when
  // it sees the new epoch.
  const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  for (std::size_t i = 0; i < n; ++i) {
    claimed_[i].store(epoch - 1, std::memory_order_relaxed);
  }
  fn_ = &fn;
  n_.store(n, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_.store(0, std::memory_order_relaxed);
    epoch_.store(epoch, std::memory_order_release);
  }
  work_cv_.notify_all();
  run_claimed(0, epoch);
  await(mu_, done_cv_,
        [&]() { return done_.load(std::memory_order_acquire) == n; });
  for (std::size_t i = 0; i < n; ++i) {
    if (errors_[i]) {
      std::exception_ptr first = std::move(errors_[i]);
      for (std::size_t j = i + 1; j < n; ++j) errors_[j] = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void Team::run_claimed(std::size_t member, std::uint32_t epoch) {
  const std::size_t n = n_.load(std::memory_order_relaxed);
  auto try_run = [&](std::size_t i) {
    std::uint32_t prev = epoch - 1;
    if (!claimed_[i].compare_exchange_strong(prev, epoch,
                                             std::memory_order_relaxed)) {
      return;  // another member has it, or this run is over
    }
    try {
      (*fn_)(i);
    } catch (...) {
      errors_[i] = std::current_exception();
    }
    // The release publishes index i's effects (and errors_[i]) to the
    // caller's acquire of done_.
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last = done_.fetch_add(1, std::memory_order_release) + 1 == n;
    }
    if (last) done_cv_.notify_one();
  };
  for (std::size_t i = member; i < n; i += members_) try_run(i);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % members_ != member) try_run(i);
  }
}

void Team::helper_loop(std::size_t member, std::uint32_t seen) {
  for (;;) {
    await(mu_, work_cv_, [&]() {
      return stop_.load(std::memory_order_acquire) ||
             epoch_.load(std::memory_order_acquire) != seen;
    });
    if (stop_.load(std::memory_order_acquire)) return;
    seen = epoch_.load(std::memory_order_acquire);
    run_claimed(member, seen);
  }
}

}  // namespace loki
