#include "sim/parallel.hpp"

#include <algorithm>
#include <thread>
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

}  // namespace

ParallelSimulation::ParallelSimulation(Config cfg)
    : cfg_(cfg), team_(team_threads(cfg)) {
  LOKI_CHECK_MSG(cfg_.shards >= 1, "parallel sim needs at least one shard");
  LOKI_CHECK_MSG(cfg_.window_s > 0.0, "window_s must be positive");
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    shards_.push_back(std::make_unique<Simulation>());
  }
  posts_.resize(cfg_.shards);
}

void ParallelSimulation::run_until(Time t_end) {
  LOKI_CHECK(t_end >= now_);
  while (now_ < t_end) {
    const Time w_end = std::min(t_end, now_ + cfg_.window_s);
    window_end_ = w_end;
    // Every shard runs even if one throws; the lowest shard's exception is
    // rethrown after all of them ran.
    team_.run(shards_.size(),
              [this](std::size_t i) { shards_[i]->run_until(window_end_); });
    now_ = w_end;
    apply_posts();
    if (barrier_cb_) barrier_cb_(w_end);
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
