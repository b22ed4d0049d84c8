// String-keyed factory registry for allocation strategies: baselines,
// benches, examples, and tests register and construct strategies by name,
// and the registered key doubles as AllocationStrategy::name() — the single
// source of truth for figure labels, CSV columns, and test expectations.
//
// Built-in strategies ("loki-milp", "greedy", "inferline", "proteus") are
// registered by exp::register_builtin_strategies(); custom strategies can be
// added from anywhere (see examples/custom_pipeline.cpp).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serving/allocation.hpp"
#include "serving/types.hpp"

namespace loki::serving {

class StrategyRegistry {
 public:
  /// Builds a strategy over a pipeline. The config/graph/profiles triple is
  /// the construction contract every built-in strategy shares; the graph
  /// must outlive the returned strategy.
  using Factory = std::function<std::unique_ptr<AllocationStrategy>(
      const AllocatorConfig& cfg, const pipeline::PipelineGraph* graph,
      const ProfileTable& profiles)>;

  /// The process-wide registry (thread-safe).
  static StrategyRegistry& global();

  /// Registers a factory under `name`. Returns false (and leaves the
  /// existing entry untouched) when the name is already taken — repeat
  /// registration of the built-ins is therefore an idempotent no-op.
  /// The invariant callers must uphold: a strategy constructed from the
  /// factory reports name() == the registered key.
  bool add(std::string name, Factory factory);

  bool contains(const std::string& name) const;

  /// Registered keys, sorted.
  std::vector<std::string> names() const;

  /// Constructs the strategy registered under `name`; aborts with the list
  /// of known names when it is unknown (a misspelled system name in an
  /// experiment config is a configuration bug, not a runtime condition).
  std::unique_ptr<AllocationStrategy> create(
      const std::string& name, const AllocatorConfig& cfg,
      const pipeline::PipelineGraph* graph, const ProfileTable& profiles) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

}  // namespace loki::serving
