// Graceful degradation: SLO tiers with priority-aware shedding on the data
// plane (TierPlane), and a deadline-enforced fallback chain decorating the
// planner's strategy on the control plane (PlanFallbackChain). Both are off
// by default and bit-identical to the untiered, unwrapped system; the shed
// helpers reproduce the untiered comparisons exactly for single-tier
// traffic.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/registry.hpp"
#include "pipeline/graph.hpp"
#include "serving/metrics.hpp"
#include "serving/types.hpp"

namespace loki::serving {

/// Data-plane tier policy. Tier 0 is strict, 1 standard, 2 best-effort;
/// shedding always falls lowest-tier-first (within a tier, latest-deadline
/// -first: admission-time shedding drops the newest arrival, whose deadline
/// is by construction the latest outstanding one in its tier).
struct TierPolicy {
  bool enabled = false;
  /// Per-tier admission watermark: shed a tier-k arrival when the tier's
  /// in-flight query count reaches depth_watermark[k] * max(1, planned
  /// servers). Strict tiers get deeper queues.
  std::array<double, kNumTiers> depth_watermark = {64.0, 32.0, 16.0};
  /// The frontend routing table can carry an unplaced remainder when the
  /// plan under-covers demand (e.g. while observed mult factors converge);
  /// a draw landing there normally sheds tier-blind. With this on, a
  /// strict-tier (tier 0) arrival hitting the remainder is force-routed to
  /// the least-loaded worker of the frontend task instead of shed — a
  /// bounded overcommit (tier 0 is a small share) that keeps routing-
  /// remainder shedding off the strict tier. Off by default: the remainder
  /// draw itself consumes no extra RNG, so enabling it changes outcomes
  /// only for queries that would otherwise have been shed.
  bool remainder_priority = false;
};

/// Control-plane fallback chain configuration: primary strategy within the
/// epoch budget, near-warm resolve, greedy, retain previous plan — each rung
/// gated by plan validation before install.
struct FallbackConfig {
  bool enabled = false;
  /// Epoch plan deadline (seconds of reported solve wall time). Rungs 0-1
  /// whose solve exceeds it fall through; <= 0 disables the deadline. The
  /// check is post-hoc (the solve is not preempted) and wall-clock, so a
  /// tight deadline trades reproducibility for responsiveness — tests force
  /// a miss with an epsilon deadline instead of relying on host speed.
  double deadline_s = 0.0;
};

/// Per-tier serve probabilities for overload shedding: the serve budget
/// `serve_frac` (the plan's served fraction) is granted highest-tier-first
/// across the observed tier shares, so shedding falls strictly lowest-tier
/// -first. A zero-share tier serves iff budget remains. With shares
/// {1, 0, 0} the tier-0 probability equals `serve_frac` bit-for-bit, so an
/// armed single-tier run sheds on the exact comparison the untiered path
/// uses.
std::array<double, kNumTiers> tier_serve_probs(
    double serve_frac, const std::array<double, kNumTiers>& shares);

/// Per-tier shed probabilities for degraded-mode (fault) shedding: the shed
/// budget `shed_frac` is taken lowest-tier-first across the shares. Dual of
/// tier_serve_probs, phrased as shed probabilities so the single-tier tier-0
/// value equals `shed_frac` bit-for-bit (the degraded path draws
/// bernoulli(shed) rather than comparing against a serve fraction).
std::array<double, kNumTiers> tier_shed_probs(
    double shed_frac, const std::array<double, kNumTiers>& shares);

/// The SLO-tier plane of one serving system: per-tier arrival shares and
/// their window, in-flight depths for watermark admission, and the per-tier
/// fills the frontend draws against (serve probability under overload, shed
/// probability in degraded mode). Unarmed, every tier's fills equal the
/// plan's served fraction and the degraded shed fraction bit-for-bit and the
/// watermark is unbounded, so callers need no tiers-on branch; only an armed
/// plane registers its five <prefix>.degrade.* counters.
class TierPlane {
 public:
  /// EWMA weight of a new share window. The first non-empty window seeds
  /// the shares exactly, and a window whose shares bit-match the current
  /// estimate is skipped, so single-tier traffic stays at exactly {1, 0, 0}.
  static constexpr double kShareEwmaAlpha = 0.3;

  TierPlane(const TierPolicy& policy, obs::Registry& registry,
            const std::string& prefix);

  bool armed() const { return armed_; }

  /// Counts one arrival into the share window.
  void record_arrival(int tier) { window_[slot(tier)] += 1.0; }
  /// Watermark admission control: false (and counted) when the tier's
  /// in-flight depth reached its watermark scaled by the planned servers.
  /// Deterministic — no RNG drawn.
  bool admit(int tier, int planned_servers) {
    const double cap = watermark_[slot(tier)] *
                       static_cast<double>(std::max(1, planned_servers));
    if (static_cast<double>(inflight_[slot(tier)]) < cap) return true;
    c_admission_shed_.add(1);
    return false;
  }
  void on_admit(int tier) { ++inflight_[slot(tier)]; }
  void on_finalize(int tier) { --inflight_[slot(tier)]; }

  double serve_fill(int tier) const { return serve_[slot(tier)]; }
  double shed_fill(int tier) const { return shed_[slot(tier)]; }
  const std::array<double, kNumTiers>& shares() const { return shares_; }
  /// True when a `tier` arrival whose routing draw landed in the unplaced
  /// remainder is force-routed instead of shed (TierPolicy::
  /// remainder_priority, strict tier only).
  bool rescues_remainder(int tier) const {
    return remainder_priority_ && tier == 0;
  }

  /// Folds the arrival window into the shares, then refills.
  void refresh(double served_fraction, double shed_fraction);
  /// Recomputes both fills from the current shares.
  void fill(double served_fraction, double shed_fraction);

  void count_overload_shed() { c_overload_shed_.add(1); }
  void count_remainder_rescue() { c_remainder_rescued_.add(1); }
  void count_retry() { c_retries_.add(1); }
  void count_retry_given_up() { c_retry_given_up_.add(1); }

 private:
  static std::size_t slot(int tier) { return static_cast<std::size_t>(tier); }

  bool armed_ = false;
  bool remainder_priority_ = false;
  std::array<double, kNumTiers> watermark_{};
  std::array<double, kNumTiers> shares_ = {1.0, 0.0, 0.0};
  bool shares_seeded_ = false;
  std::array<double, kNumTiers> window_{};
  std::array<std::int64_t, kNumTiers> inflight_{};
  std::array<double, kNumTiers> serve_ = {1.0, 1.0, 1.0};
  std::array<double, kNumTiers> shed_{};
  obs::Counter c_admission_shed_;
  obs::Counter c_overload_shed_;
  obs::Counter c_remainder_rescued_;
  obs::Counter c_retries_;
  obs::Counter c_retry_given_up_;
};

/// Plan-validation gate run before install: capacity/shape/budget sanity.
/// Returns nullptr when the plan is installable, else a static reason
/// string (for counters/logs). `cluster_size` is the effective placement
/// capacity of the epoch (already shrunk by surviving workers).
const char* validate_plan(const AllocationPlan& plan,
                          const pipeline::PipelineGraph& graph,
                          int cluster_size);

/// What one chained plan() call did. rung: 0 primary, 1 near-warm,
/// 2 greedy, 3 retained previous plan.
struct FallbackOutcome {
  PlanResult result;
  int rung = 0;
  /// Rungs fallen through (deadline misses + validation rejects).
  int fallbacks = 0;
  /// Validation-gate rejections among those.
  int rejects = 0;
  bool retained_previous = false;
};

/// Deadline-enforced fallback chain decorating an allocation strategy. A
/// pathological solve can degrade plan quality but can never stall the
/// epoch loop (rungs 2-3 are cheap and always complete) or corrupt serving
/// (every rung passes the validation gate; the terminal rung reuses the
/// already-validated previous plan). A null rung is skipped. plan() counts
/// each outcome into the registry under <prefix>.plan_fallbacks,
/// <prefix>.plan_rejects and <prefix>.plan_retained; name() is the primary
/// strategy's, so a wrapped run reports the strategy it runs.
class PlanFallbackChain : public AllocationStrategy {
 public:
  /// Owns its rungs. `cluster_size` is the configured cluster; the per-call
  /// effective capacity shrinks with PlanRequest::available_workers.
  PlanFallbackChain(std::unique_ptr<AllocationStrategy> primary,
                    std::unique_ptr<AllocationStrategy> near_warm,
                    std::unique_ptr<AllocationStrategy> greedy,
                    double deadline_s, const pipeline::PipelineGraph* graph,
                    int cluster_size, obs::Registry& registry,
                    const std::string& prefix);

  PlanResult plan(const PlanRequest& req) override;
  std::string name() const override { return rungs_[0]->name(); }

  /// Walks the rungs for one request without counting the outcome.
  FallbackOutcome walk(const PlanRequest& req);

 private:
  std::unique_ptr<AllocationStrategy> rungs_[3];
  double deadline_s_;
  const pipeline::PipelineGraph* graph_;
  int cluster_size_;
  obs::Counter c_fallbacks_;
  obs::Counter c_rejects_;
  obs::Counter c_retained_;
};

}  // namespace loki::serving
