#include "pipeline/paths.hpp"

#include "common/check.hpp"

namespace loki::pipeline {

namespace {
std::vector<VariantPath> enumerate_along(const PipelineGraph& g,
                                         const std::vector<int>& tasks) {
  std::vector<VariantPath> out;
  std::vector<int> choice(tasks.size(), 0);
  for (;;) {
    VariantPath p;
    p.sink = tasks.back();
    p.tasks = tasks;
    p.variants = choice;
    out.push_back(std::move(p));
    // Odometer increment, last position fastest (lexicographic output).
    int pos = static_cast<int>(tasks.size()) - 1;
    while (pos >= 0) {
      const int limit =
          g.task(tasks[static_cast<std::size_t>(pos)]).catalog.size();
      if (++choice[static_cast<std::size_t>(pos)] < limit) break;
      choice[static_cast<std::size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  return out;
}
}  // namespace

std::vector<VariantPath> enumerate_variant_paths(const PipelineGraph& g,
                                                 int sink) {
  LOKI_CHECK_MSG(g.is_sink(sink), "task " << sink << " is not a sink");
  return enumerate_along(g, g.task_path_to(sink));
}

std::vector<VariantPrefix> enumerate_variant_prefixes(const PipelineGraph& g,
                                                      int task) {
  return enumerate_along(g, g.task_path_to(task));
}

double path_accuracy(const PipelineGraph& g, const VariantPath& p) {
  double acc = 1.0;
  for (std::size_t i = 0; i < p.tasks.size(); ++i) {
    acc *= g.task(p.tasks[i]).catalog.at(p.variants[i]).accuracy;
  }
  return acc;
}

double path_multiplier(const PipelineGraph& g, const MultFactorTable& factors,
                       const VariantPath& p, std::size_t pos) {
  LOKI_CHECK(pos < p.tasks.size());
  double m = 1.0;
  for (std::size_t i = 0; i < pos; ++i) {
    const int task = p.tasks[i];
    const int variant = p.variants[i];
    const double r =
        factors.at(static_cast<std::size_t>(task)).at(static_cast<std::size_t>(variant));
    m *= r * g.branch_ratio(task, p.tasks[i + 1]);
  }
  return m;
}

bool path_extends(const VariantPath& p, const VariantPrefix& prefix) {
  if (prefix.tasks.size() > p.tasks.size()) return false;
  for (std::size_t i = 0; i < prefix.tasks.size(); ++i) {
    if (p.tasks[i] != prefix.tasks[i] || p.variants[i] != prefix.variants[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace loki::pipeline
