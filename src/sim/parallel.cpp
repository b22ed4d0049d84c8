#include "sim/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"

namespace loki::sim {

namespace {

/// Team size: the calling thread plus the helpers.
std::size_t team_threads(const ParallelSimulation::Config& cfg) {
  const std::size_t want =
      cfg.threads > 0
          ? cfg.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(std::max<std::size_t>(1, cfg.shards), want);
}

/// How long a team member spins before it blocks. It covers the usual gap
/// between windows (the barrier work plus one shard's window), and bounds
/// the CPU a member burns when the gap is long (a replan, or the run's end).
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

ParallelSimulation::ParallelSimulation(Config cfg)
    : cfg_(cfg), claimed_(cfg.shards) {
  LOKI_CHECK_MSG(cfg_.shards >= 1, "parallel sim needs at least one shard");
  LOKI_CHECK_MSG(cfg_.window_s > 0.0, "window_s must be positive");
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    shards_.push_back(std::make_unique<Simulation>());
  }
  posts_.resize(cfg_.shards);
  errors_.resize(cfg_.shards);
  const std::size_t helpers = team_threads(cfg_) - 1;
  helpers_.reserve(helpers);
  try {
    for (std::size_t i = 0; i < helpers; ++i) {
      helpers_.emplace_back([this, i]() { helper_loop(i + 1); });
    }
  } catch (...) {
    stop_helpers();  // a thread failed to start: join the ones that did
    throw;
  }
}

ParallelSimulation::~ParallelSimulation() { stop_helpers(); }

void ParallelSimulation::stop_helpers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void ParallelSimulation::run_until(Time t_end) {
  LOKI_CHECK(t_end >= now_);
  while (now_ < t_end) {
    const Time w_end = std::min(t_end, now_ + cfg_.window_s);
    window_end_ = w_end;
    if (shards_.size() == 1) {
      shards_[0]->run_until(w_end);
    } else {
      run_window();
    }
    now_ = w_end;
    apply_posts();
    if (barrier_cb_) barrier_cb_(w_end);
  }
}

void ParallelSimulation::run_window() {
  // Everything the caller wrote since the last window (window_end_, the
  // barrier's posts and plan changes) is published by this release store;
  // a helper acquires it when it sees the new epoch.
  const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_.store(0, std::memory_order_relaxed);
    epoch_.store(epoch, std::memory_order_release);
  }
  work_cv_.notify_all();
  run_claimed(0, epoch);
  const std::size_t n = shards_.size();
  await(mu_, done_cv_,
        [&]() { return done_.load(std::memory_order_acquire) == n; });
  for (std::exception_ptr& e : errors_) {
    if (e) {
      std::exception_ptr first = std::move(e);
      for (std::exception_ptr& rest : errors_) rest = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void ParallelSimulation::run_claimed(std::size_t member, std::uint32_t epoch) {
  const std::size_t n = shards_.size();
  const std::size_t team = helpers_.size() + 1;
  auto try_run = [&](std::size_t i) {
    std::uint32_t prev = epoch - 1;
    if (!claimed_[i].compare_exchange_strong(prev, epoch,
                                             std::memory_order_relaxed)) {
      return;  // another member has it
    }
    try {
      shards_[i]->run_until(window_end_);
    } catch (...) {
      errors_[i] = std::current_exception();
    }
    // The release publishes shard i's state (and errors_[i]) to the
    // caller's acquire of done_.
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last = done_.fetch_add(1, std::memory_order_release) + 1 == n;
    }
    if (last) done_cv_.notify_one();
  };
  for (std::size_t i = member; i < n; i += team) try_run(i);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % team != member) try_run(i);
  }
}

void ParallelSimulation::helper_loop(std::size_t member) {
  std::uint32_t seen = 0;
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

void ParallelSimulation::post(std::size_t src, std::size_t dst, Time t,
                              Simulation::Callback cb) {
  LOKI_CHECK(src < posts_.size() && dst < shards_.size());
  // Conservative lookahead: the destination shard may already have advanced
  // to the end of the current window, so earlier targets would violate the
  // no-events-in-the-past invariant (and determinism).
  LOKI_CHECK_MSG(t >= window_end_,
                 "cross-shard post at t=" << t << " before window barrier "
                                          << window_end_);
  posts_[src].push_back(Post{dst, t, std::move(cb)});
}

void ParallelSimulation::apply_posts() {
  // Merge per-source buffers in (t, dst, src, issue-order) order. Each
  // buffer is written by a single thread, and this order is independent of
  // how the OS scheduled those threads, so replays are bit-identical.
  struct Ref {
    Time t;
    std::size_t dst;
    std::size_t src;
    std::size_t idx;
  };
  std::vector<Ref> order;
  for (std::size_t src = 0; src < posts_.size(); ++src) {
    for (std::size_t i = 0; i < posts_[src].size(); ++i) {
      order.push_back(Ref{posts_[src][i].t, posts_[src][i].dst, src, i});
    }
  }
  if (order.empty()) return;
  std::stable_sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.src != b.src) return a.src < b.src;
    return a.idx < b.idx;
  });
  for (const Ref& r : order) {
    Post& p = posts_[r.src][r.idx];
    shards_[p.dst]->schedule_at(p.t, std::move(p.cb));
  }
  for (auto& buf : posts_) buf.clear();
}

}  // namespace loki::sim
