// Trace replay: a recorded (timestamp, task, tier) query log as an arrival
// source. Closes the generator gap of ROADMAP item 4 — instead of sampling
// arrivals from a demand curve, an experiment can replay the exact
// timestamped, tier-stamped sequence captured from a real deployment (or
// authored by hand for a regression), bit-reproducibly.
#pragma once

#include <string>
#include <vector>

#include "trace/generator.hpp"

namespace loki::trace {

/// One replayed query: absolute arrival time, the pipeline task it targets
/// (today the frontend always enters at the root task; the column is
/// persisted and validated for forward compatibility with mid-pipeline
/// injection), and its SLO tier (0 = strict, 1 = standard, 2 = best-effort).
struct ReplayRow {
  double t_s = 0.0;
  int task = 0;
  int tier = 0;
};

struct QueryReplay {
  std::vector<ReplayRow> rows;  // ascending t_s

  bool empty() const { return rows.empty(); }
  /// Timestamp of the last arrival (0 when empty).
  double duration_s() const { return rows.empty() ? 0.0 : rows.back().t_s; }
};

/// Reads a replay CSV: the header line "t_s,task,tier", then one
/// "t_s,task,tier" row per query (blank lines skipped). Each field must be
/// a number with nothing after it. Validates non-decreasing timestamps,
/// task >= 0 and tier in [0, 8). Throws std::runtime_error on malformed
/// input.
QueryReplay load_replay_csv(const std::string& path);

/// Bins the replay into a DemandCurve at `interval_s` (arrivals per second
/// per bin) — the demand view controllers and plots expect.
DemandCurve replay_demand_curve(const QueryReplay& replay, double interval_s);

}  // namespace loki::trace
