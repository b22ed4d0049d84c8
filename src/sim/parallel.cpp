#include "sim/parallel.hpp"

#include <algorithm>
#include <thread>

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
}

void ParallelSimulation::run_until(Time t_end) {
  LOKI_CHECK(t_end >= now_);
  while (now_ < t_end) {
    const Time w_end = std::min(t_end, now_ + cfg_.window_s);
    // Every shard runs even if one throws; the lowest shard's exception is
    // rethrown after all of them ran.
    team_.run(shards_.size(),
              [this, w_end](std::size_t i) { shards_[i]->run_until(w_end); });
    now_ = w_end;
    if (barrier_cb_) barrier_cb_(w_end);
  }
}

}  // namespace loki::sim
