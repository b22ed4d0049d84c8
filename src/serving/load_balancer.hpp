// The Load Balancer (§5): turns the Resource Manager's allocation plan into
// routing tables via the MostAccurateFirst algorithm (Algorithm 1), and
// produces the backup tables (leftover-capacity lists) that opportunistic
// rerouting (§5.2) consults at runtime.
//
// Routing is computed at instance-group granularity — all replicas of one
// (task, variant, batch) config are interchangeable — and the runtime picks
// the least-loaded replica within the chosen group.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "pipeline/graph.hpp"
#include "serving/allocation.hpp"
#include "serving/types.hpp"

namespace loki::serving {

/// Probability of routing to one instance group (index into
/// AllocationPlan::instances).
struct GroupRoute {
  int group = -1;
  double probability = 0.0;
};

/// Backup-table entry (§5.1 end / §5.2): a group with leftover capacity,
/// its profiled execution time and accuracy, used to find a faster
/// alternative when a request falls behind its latency budget.
struct BackupEntry {
  int group = -1;
  double leftover_qps = 0.0;
  double exec_s = 0.0;
  double accuracy = 0.0;
};

/// Routing tables for the Frontend and every instance group.
struct RoutingPlan {
  /// Frontend -> root-task groups. Probabilities sum to <= 1; the deficit is
  /// demand the plan cannot place (shed at the frontend).
  std::vector<GroupRoute> frontend;
  /// group_routes[group][child_task] -> distribution over child groups.
  /// Probabilities per (group, child) sum to <= 1; deficit items are
  /// dropped at forward time (no capacity anywhere downstream).
  std::vector<std::map<int, std::vector<GroupRoute>>> group_routes;
  /// Per task: groups with leftover capacity, most accurate first.
  std::vector<std::vector<BackupEntry>> backup_per_task;
  /// Profiled batch execution latency per group (for rerouting math).
  std::vector<double> group_exec_s;
  /// Planned incoming QPS per group (diagnostics / tests).
  std::vector<double> group_incoming_qps;

  /// Dense [group][child_task] lookup over group_routes, rebuilt by
  /// finalize(): the per-forwarded-item path does one multiply-add and an
  /// array read instead of a map search. Semantics are preserved exactly:
  /// a missing (group, task) entry returns nullptr (stale-plan marker — the
  /// runtime falls back to any worker of the task), while an *empty* table
  /// is a real table meaning "drop" (no capacity anywhere downstream).
  const std::vector<GroupRoute>* routes_for(int group, int task) const {
    const std::int32_t k = table_index(group, task);
    return k < 0 ? nullptr : &route_tables_[static_cast<std::size_t>(k)];
  }

  /// Flattened draw view over one routing table: cumulative probability
  /// thresholds (the same left-to-right partial sums the linear pick_route
  /// accumulates, so every draw maps to the same group bit-for-bit) plus the
  /// group ids, both contiguous. pick() is a branchless counting scan with
  /// no per-draw memory traffic beyond the two arrays.
  struct DrawTable {
    const double* cum = nullptr;
    const std::int32_t* grp = nullptr;
    std::uint32_t size = 0;

    bool empty() const { return size == 0; }

    /// Same contract as pick_route(routes, r): the chosen group, or -1 when
    /// the draw lands in the unplaced remainder; a draw past an exhaustive
    /// table's fp tail falls back to the last route instead of shedding.
    ///
    /// Locates the first threshold > r by counting the thresholds <= r
    /// (they never decrease): independent compares over a contiguous double
    /// array, one per cycle, with none of pick_route's serial fp-accumulate
    /// chain. A table holds one task's groups, a handful in practice.
    int pick(double r) const {
      if (size == 0) return -1;
      std::uint32_t first_gt = 0;
      for (std::uint32_t i = 0; i < size; ++i) {
        first_gt += (cum[i] <= r) ? 1u : 0u;
      }
      if (first_gt < size) return grp[first_gt];
      if (cum[size - 1] >= 1.0 - 1e-9) return grp[size - 1];
      return -1;  // unplaced remainder
    }
  };

  /// Draw view of the frontend table.
  DrawTable frontend_table() const { return table_view(frontend_ref_); }
  /// Dense table id for (group, child task); -1 when the plan has no entry
  /// (stale-plan marker, same contract as routes_for returning nullptr).
  std::int32_t table_index(int group, int task) const {
    if (group < 0 || group >= static_cast<int>(group_routes.size()) ||
        task < 0 || task >= route_tasks_) {
      return -1;
    }
    return route_index_[static_cast<std::size_t>(group) *
                            static_cast<std::size_t>(route_tasks_) +
                        static_cast<std::size_t>(task)];
  }
  /// Draw view for a table id from table_index() (must be >= 0).
  DrawTable table_at(std::int32_t k) const {
    return table_view(draw_refs_[static_cast<std::size_t>(k)]);
  }

  /// (Re)builds the dense index and the flattened draw tables from
  /// frontend/group_routes. The LoadBalancer calls this before returning;
  /// call it again after mutating the tables by hand (tests).
  void finalize(int num_tasks);

 private:
  struct TableRef {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };

  DrawTable table_view(TableRef ref) const {
    return DrawTable{draw_cum_.data() + ref.off, draw_grp_.data() + ref.off,
                     ref.len};
  }

  int route_tasks_ = 0;
  std::vector<std::int32_t> route_index_;  // [group * route_tasks_ + task]
  std::vector<std::vector<GroupRoute>> route_tables_;
  // Flattened draw tables (all tables concatenated; refs index into them).
  std::vector<double> draw_cum_;
  std::vector<std::int32_t> draw_grp_;
  std::vector<TableRef> draw_refs_;  // parallel to route_tables_
  TableRef frontend_ref_;
};

/// Draws from a route distribution with uniform sample `r` in [0, 1).
/// Returns the chosen group, or -1 when the draw lands in the unplaced
/// remainder (probabilities sum < 1: intentional shed/drop). When the table
/// is exhaustive (probabilities sum to ~1) a draw past the accumulated tail
/// is floating-point rounding, not remainder, and falls back to the last
/// route instead of spuriously shedding.
int pick_route(const std::vector<GroupRoute>& routes, double r);

class LoadBalancer {
 public:
  /// `utilization_target` derates group capacities the same way the
  /// allocator derates them, so routing saturates groups at the planned
  /// utilization rather than at 100% of profiled throughput.
  LoadBalancer(const pipeline::PipelineGraph* graph,
               const ProfileTable* profiles, double utilization_target = 1.0);

  /// MostAccurateFirst (Algorithm 1) at instance-group granularity.
  /// `demand_qps` is the frontend demand estimate; `mult` the current
  /// multiplicative-factor estimates.
  RoutingPlan most_accurate_first(const AllocationPlan& plan,
                                  double demand_qps,
                                  const pipeline::MultFactorTable& mult) const;

 private:
  const pipeline::PipelineGraph* graph_;
  const ProfileTable* profiles_;
  double utilization_target_;
};

}  // namespace loki::serving
