// loki_bench: the repository benchmark. One process runs one workload:
//
//   1. set-up, repeated kSetups times (median reported as setup_s):
//      pipeline.build -> profile.build -> trace.generate -> capacity.probe;
//   2. one discarded warm-up experiment;
//   3. timed experiments until both --reps and --seconds are satisfied.
//
// Every experiment is checked for exact accounting (arrivals == completions
// + drops, per tier too) and every simulated metric must be bit-identical
// to the warm-up's. With --trace the process alternates plain and wrapped
// experiments: the wrapped ones plan through "bench.loki-milp", a strategy
// that times each AllocationStrategy::plan() call from outside, so host
// time is split into layers without touching src/. The last line on stdout
// is one JSON object {"correct", "attempted", "failed", "metrics"} holding
// the end-to-end metrics (untraced) or the per-layer metrics (--trace).
// benchmark/README.md documents the workloads and metrics.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/flags.hpp"
#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "obs/registry.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/allocation.hpp"
#include "serving/strategy_registry.hpp"
#include "trace/arrivals.hpp"
#include "trace/generator.hpp"

namespace {

using namespace loki;

constexpr const char* kPlainKey = "loki-milp";
constexpr const char* kWrappedKey = "bench.loki-milp";
const char* const kWorkloads[] = {"diurnal", "replan-storm", "flash-degrade",
                                  "steady-sharded"};

// ---------------------------------------------------------------------------
// Small numeric and formatting helpers
// ---------------------------------------------------------------------------

/// Quartiles the way Python's statistics.quantiles(values, n=4) computes
/// them (the default "exclusive" method), so README numbers, compare.py and
/// this program agree.
struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  const long n = static_cast<long>(v.size());
  const long m = n + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.median = out[1];
  q.q3 = out[2];
  return q;
}

double median(std::vector<double> v) { return quartiles(std::move(v)).median; }

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// SplitMix64 finalizer: decorrelated per-purpose seeds from --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as JSONL when a traced run ends
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::string run;
  std::string attrs;  // JSON object, "{}" when empty
};

class SpanLog {
 public:
  std::uint64_t add(std::string name, std::uint64_t parent, std::string run,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::string attrs = "{}") {
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{std::move(name), id, parent, start_ns, end_ns,
                          std::move(run), std::move(attrs)});
    return id;
  }

  bool write(const std::string& path, std::uint64_t origin_ns) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":" << quoted(s.name) << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << (s.start_ns - origin_ns)
          << ",\"end_ns\":" << (s.end_ns - origin_ns)
          << ",\"run\":" << quoted(s.run) << ",\"attrs\":" << s.attrs
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// The wrapped strategy: times plan() from outside and keeps its result
// ---------------------------------------------------------------------------

/// What one plan() call did, digested from the PlanResult it returned.
struct PlanRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int epoch = 0;
  serving::ScalingMode mode = serving::ScalingMode::kHardware;
  /// Wall seconds per allocation step, indexed like kStepNames.
  double step_wall_s[3] = {0.0, 0.0, 0.0};
  int selected_step = -1;  // index into step_wall_s
  serving::SolverStats solver;
};

/// StepSolve::step names, in PlanRecord::step_wall_s order.
constexpr const char* kStepNames[3] = {"hardware", "accuracy", "overload"};

int step_index(const std::string& step) {
  for (int i = 0; i < 3; ++i) {
    if (step == kStepNames[i]) return i;
  }
  return -1;
}

/// Collects the per-instance record buffers. Registration takes the lock
/// once per strategy instance; plan() writes only its own buffer, so
/// instances planning on different threads never contend. Buffers are
/// merged after run_experiment returns, when no strategy is alive.
class PlanLedger {
 public:
  std::vector<PlanRecord>* open_buffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<PlanRecord>>());
    buffers_.back()->reserve(4096);
    return buffers_.back().get();
  }

  std::vector<PlanRecord> drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<PlanRecord> all;
    for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
    buffers_.clear();
    std::sort(all.begin(), all.end(),
              [](const PlanRecord& a, const PlanRecord& b) {
                return a.start_ns < b.start_ns;
              });
    return all;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<PlanRecord>>> buffers_;
};

PlanLedger& ledger() {
  static PlanLedger instance;
  return instance;
}

class TimedStrategy final : public serving::AllocationStrategy {
 public:
  explicit TimedStrategy(std::unique_ptr<serving::AllocationStrategy> inner)
      : inner_(std::move(inner)), records_(ledger().open_buffer()) {}

  serving::PlanResult plan(const serving::PlanRequest& request) override {
    const std::uint64_t t0 = steady_now_ns();
    serving::PlanResult result = inner_->plan(request);
    const std::uint64_t t1 = steady_now_ns();
    PlanRecord rec;
    rec.start_ns = t0;
    rec.end_ns = t1;
    rec.epoch = result.epoch;
    rec.mode = result.plan.mode;
    rec.solver = result.solver;
    for (const serving::StepSolve& s : result.steps) {
      const int i = step_index(s.step);
      if (i < 0) continue;
      rec.step_wall_s[i] += s.wall_s;
      if (s.selected) rec.selected_step = i;
    }
    records_->push_back(rec);
    return result;
  }

  std::string name() const override { return kWrappedKey; }

 private:
  std::unique_ptr<serving::AllocationStrategy> inner_;
  std::vector<PlanRecord>* records_;  // owned by the ledger
};

void register_wrapped_strategy() {
  exp::register_builtin_strategies();
  serving::StrategyRegistry::global().add(
      kWrappedKey, [](const serving::AllocatorConfig& cfg,
                      const pipeline::PipelineGraph* graph,
                      const serving::ProfileTable& profiles) {
        return std::make_unique<TimedStrategy>(
            exp::make_strategy(kPlainKey, cfg, graph, profiles));
      });
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Set-ups timed per process; setup_s is their median.
constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int min_reps = 3;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  bool allow_debug = false;
  std::string out_dir = "bench_out";
  std::string git_sha = "unknown";
};

/// Everything one experiment needs; built by setup().
struct Inputs {
  explicit Inputs(pipeline::PipelineGraph g) : graph(std::move(g)) {}
  pipeline::PipelineGraph graph;
  trace::DemandCurve curve;
  exp::ExperimentConfig cfg;
  double capacity_qps = 0.0;
};

/// Host seconds of one set-up (every phase is also a span).
struct SetupTimes {
  double total_s = 0.0, profile_s = 0.0, trace_s = 0.0;
};

/// The demand curve of a workload. It is part of the workload's definition,
/// like the fixed Azure and Twitter traces of the paper: its seed is pinned,
/// and --seed draws only the arrivals, routing and tier realisations on top
/// of it. Seeding the curve too moves the burst count of replan-storm by
/// ±50% between seeds, which changes the workload rather than sampling it.
/// Seed 5 gives replan-storm ~150 plans per run at a planner share above
/// 0.35, the property it is chosen for. Peaks are fixed QPS values, never
/// scaled from the capacity probe, so a planner change cannot change the
/// workload. --smoke shrinks every duration to a tenth.
trace::TraceConfig trace_config(const std::string& w, double scale) {
  trace::TraceConfig t;
  t.seed = 5;
  if (w == "diurnal") {
    t.shape = trace::TraceShape::kAzureDiurnal;
    t.duration_s = 600.0 * scale;
    t.peak_qps = 5300.0;
  } else if (w == "replan-storm") {
    t.shape = trace::TraceShape::kTwitterBursty;
    t.duration_s = 300.0 * scale;
    t.peak_qps = 5000.0;
    t.burst_rate_per_hour = 120.0;
    t.burst_magnitude = 1.0;
    t.base_fraction = 0.3;
  } else if (w == "flash-degrade") {
    t.shape = trace::TraceShape::kFlashCrowd;
    t.duration_s = 600.0 * scale;
    t.peak_qps = 2200.0;
  } else {  // steady-sharded
    t.shape = trace::TraceShape::kConstant;
    t.duration_s = 600.0 * scale;
    t.peak_qps = 4600.0;
    t.noise_frac = 0.0;
  }
  return t;
}

int cluster_size(const std::string& w) { return w == "flash-degrade" ? 32 : 96; }

/// Start of the sharpest demand rise in the first 80% of the curve: the
/// flash-crowd spike the crash is placed in.
double spike_time(const trace::DemandCurve& c) {
  const std::size_t end = std::max<std::size_t>(2, c.qps.size() * 4 / 5);
  std::size_t best = 1;
  for (std::size_t i = 1; i < end && i < c.qps.size(); ++i) {
    if (c.qps[i] - c.qps[i - 1] > c.qps[best] - c.qps[best - 1]) best = i;
  }
  return static_cast<double>(best) * c.interval_s;
}

exp::ExperimentConfig experiment_config(const std::string& w,
                                        std::uint64_t seed, double scale,
                                        const trace::DemandCurve& curve) {
  exp::ExperimentConfig cfg;
  cfg.system = kPlainKey;
  cfg.system_cfg.allocator.cluster_size = cluster_size(w);
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.system_cfg.seed = derive_seed(seed, 1);
  cfg.arrivals.process = trace::ArrivalProcess::kPoisson;
  cfg.arrivals.seed = derive_seed(seed, 2);
  if (w == "diurnal") {
    cfg.system_cfg.rm_period_s = 10.0;
  } else if (w == "replan-storm") {
    cfg.system_cfg.rm_period_s = 1.0;
  } else if (w == "flash-degrade") {
    cfg.system_cfg.rm_period_s = 5.0;
    cfg.tiers.enabled = true;
    cfg.tier_mix = {0.2, 0.4, 0.4};
    cfg.tier_seed = derive_seed(seed, 3);
    cfg.fallback.enabled = true;  // deadline_s stays 0: no wall-clock rung
    // Three workers die just after the spike starts and return 30 s later.
    const double t = spike_time(curve) + 2.0;
    for (int worker = 1; worker <= 3; ++worker) {
      fault::append(cfg.fault_plan,
                    fault::crash_plan(worker, t, t + 30.0 * scale));
    }
    cfg.fault_plan.normalize();
  } else {  // steady-sharded
    cfg.sim_shards = 4;
    cfg.sim_coordinated = true;
    cfg.sim_threads = 2;
  }
  return cfg;
}

std::unique_ptr<Inputs> setup(const Options& opt, int index, SpanLog& spans,
                              SetupTimes* times) {
  const double scale = opt.smoke ? 0.1 : 1.0;
  const std::uint64_t t0 = steady_now_ns();
  pipeline::PipelineGraph graph = pipeline::traffic_analysis_pipeline();
  const std::uint64_t t1 = steady_now_ns();
  // The profiler run_experiment builds internally (same arguments).
  profile::ModelProfiler profiler(profile::default_batch_set(),
                                  /*repetitions=*/5, /*noise_frac=*/0.0,
                                  /*seed=*/1);
  const serving::ProfileTable profiles =
      serving::build_profile_table(graph, profiler);
  const std::uint64_t t2 = steady_now_ns();
  auto in = std::make_unique<Inputs>(std::move(graph));
  in->curve = trace::generate_trace(trace_config(opt.workload, scale));
  const std::uint64_t t3 = steady_now_ns();
  serving::AllocatorConfig acfg;
  acfg.cluster_size = cluster_size(opt.workload);
  acfg.slo_s = 0.250;
  auto probe = exp::make_strategy(kPlainKey, acfg, &in->graph, profiles);
  in->capacity_qps =
      exp::find_capacity(*probe, 10.0, 30000.0,
                         pipeline::default_mult_factors(in->graph), 10.0);
  in->cfg = experiment_config(opt.workload, opt.seed, scale, in->curve);
  const std::uint64_t t4 = steady_now_ns();

  const std::string run = "setup" + std::to_string(index);
  const std::uint64_t root = spans.add("setup", 0, run, t0, t4);
  spans.add("pipeline.build", root, run, t0, t1);
  spans.add("profile.build", root, run, t1, t2);
  spans.add("trace.generate", root, run, t2, t3);
  spans.add("capacity.probe", root, run, t3, t4);
  times->total_s = steady_elapsed_s(t0, t4);
  times->profile_s = steady_elapsed_s(t1, t2);
  times->trace_s = steady_elapsed_s(t2, t3);
  return in;
}

// ---------------------------------------------------------------------------
// One experiment, its checks, and its fingerprint
// ---------------------------------------------------------------------------

struct Rep {
  bool wrapped = false;
  std::uint64_t start_ns = 0, end_ns = 0;
  double wall_s = 0.0, cpu_s = 0.0;
  std::uint64_t arrivals = 0;
  /// Timed runs drop result.metrics once checked (it holds every latency
  /// sample, and keeping it would grow peak_rss_mb with the run count);
  /// their simulated values equal the warm-up's by the checks.
  exp::ExperimentResult result;
  std::vector<PlanRecord> plans;  // wrapped runs only
};

Rep run_rep(const Inputs& in, bool wrapped) {
  exp::ExperimentConfig cfg = in.cfg;
  cfg.system = wrapped ? kWrappedKey : kPlainKey;
  Rep rep;
  rep.wrapped = wrapped;
  const double cpu0 = process_cpu_s();
  rep.start_ns = steady_now_ns();
  rep.result = exp::run_experiment(in.graph, in.curve, cfg);
  rep.end_ns = steady_now_ns();
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.wall_s = steady_elapsed_s(rep.start_ns, rep.end_ns);
  rep.arrivals = rep.result.arrivals;
  rep.plans = ledger().drain();
  return rep;
}

double servers_mean(const serving::Metrics& m) {
  return m.servers_series().mean();
}

/// Every simulated outcome of a run, formatted exactly ("%.17g" for
/// doubles), in a fixed order. Two runs are bit-identical iff their
/// fingerprints are equal. Host-time counters (obs.self.*) are excluded.
using Fingerprint = std::vector<std::pair<std::string, std::string>>;

Fingerprint fingerprint(const exp::ExperimentResult& r) {
  const serving::Metrics& m = r.metrics;
  Fingerprint f;
  auto u = [&f](const std::string& k, std::uint64_t v) {
    f.emplace_back(k, std::to_string(v));
  };
  auto d = [&f](const std::string& k, double v) { f.emplace_back(k, num(v)); };
  u("arrivals", m.arrivals());
  u("completions", m.completions());
  u("late", m.late());
  u("drops", m.drops());
  u("shed", m.shed());
  u("shed_by_failure", m.shed_by_failure());
  u("shed_by_degraded", m.shed_by_degraded());
  u("drops_by_failure", m.drops_by_failure());
  u("forwards", m.forwards());
  u("model_swaps", m.model_swaps());
  for (int k = 0; k < serving::kNumTiers; ++k) {
    const serving::TierCounts& t = m.tier(k);
    const std::string p = "tier" + std::to_string(k) + ".";
    u(p + "arrivals", t.arrivals);
    u(p + "on_time", t.on_time);
    u(p + "late", t.late);
    u(p + "drops", t.drops);
    u(p + "shed", t.shed);
    u(p + "shed_failure", t.shed_failure);
  }
  u("allocations", static_cast<std::uint64_t>(r.allocations));
  d("slo_violation_ratio", m.slo_violation_ratio());
  d("accuracy", m.mean_accuracy());
  d("servers_mean", servers_mean(m));
  u("latency_samples", m.latency().count());
  d("latency_p50", m.latency().quantile(0.50));
  d("latency_p99", m.latency().quantile(0.99));
  d("latency_p999", m.latency().quantile(0.999));
  d("latency_mean", m.mean_latency_s());
  for (const auto& [name, value] : r.obs.counters) {
    if (name.rfind("obs.self.", 0) == 0) continue;
    u(name, value);
  }
  for (const auto& h : r.obs.histograms) {
    u(h.name + ".count", h.count);
    u(h.name + ".sum", h.sum);
  }
  return f;
}

/// Name of the first entry on which two fingerprints differ ("" if none).
std::string first_difference(const Fingerprint& a, const Fingerprint& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].first != b[i].first) return a[i].first + " (series set)";
    if (a[i].second != b[i].second) {
      return a[i].first + " (" + a[i].second + " vs " + b[i].second + ")";
    }
  }
  if (a.size() != b.size()) return "series count";
  return "";
}

/// Accounting invariants of one run; returns the names of failed checks.
std::vector<std::string> accounting_failures(const Rep& rep) {
  const serving::Metrics& m = rep.result.metrics;
  std::vector<std::string> bad;
  if (m.arrivals() != m.completions() + m.drops()) {
    bad.push_back("arrivals == completions + drops");
  }
  if (m.shed() > m.drops()) bad.push_back("shed <= drops");
  if (m.latency().count() != m.completions()) {
    bad.push_back("latency samples == completions");
  }
  std::uint64_t tier_arrivals = 0;
  for (int k = 0; k < serving::kNumTiers; ++k) {
    const serving::TierCounts& t = m.tier(k);
    const std::string p = "tier" + std::to_string(k) + ": ";
    if (t.arrivals != t.completions + t.drops) {
      bad.push_back(p + "arrivals == completions + drops");
    }
    if (t.completions != t.on_time + t.late) {
      bad.push_back(p + "completions == on_time + late");
    }
    tier_arrivals += t.arrivals;
  }
  if (tier_arrivals != m.arrivals()) bad.push_back("sum of tier arrivals");
  if (rep.result.arrivals != m.arrivals()) bad.push_back("result.arrivals");
  if (rep.wrapped &&
      rep.plans.size() != static_cast<std::size_t>(rep.result.allocations)) {
    bad.push_back("plan() calls == allocations (" +
                  std::to_string(rep.plans.size()) + " vs " +
                  std::to_string(rep.result.allocations) + ")");
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> values;  // one per timed run (or per set-up)
  bool present = true;         // false: the layer is not armed here
  /// Listed in BENCHMARK.json, so part of the result line. Unlisted metrics
  /// are printed and kept in the detail file only.
  bool listed = true;
};

class MetricSet {
 public:
  void add(const std::string& name, const std::string& unit,
           std::vector<double> values, bool present = true) {
    metrics_.push_back(Metric{name, unit, std::move(values), present, true});
  }
  void add(const std::string& name, const std::string& unit, double value,
           bool present = true) {
    add(name, unit, std::vector<double>{value}, present);
  }
  /// An unlisted metric: shown, never gated (too small or too heavy-tailed
  /// across seeds for a relative bound; see README).
  void note(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back(Metric{name, unit, {value}, true, false});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

void print_metrics(const char* title, const MetricSet& set) {
  std::printf("\n%s\n", title);
  for (const Metric& m : set.all()) {
    if (!m.present) {
      std::printf("  %-28s %14s %-10s (plane not armed; reported as 0)\n",
                  m.name.c_str(), "absent", m.unit.c_str());
      continue;
    }
    const Quartiles q = quartiles(m.values);
    if (m.values.size() > 1 && q.q1 != q.q3) {
      std::printf("  %-28s %14.6g %-10s [q1 %.6g, q3 %.6g; n=%zu]\n",
                  m.name.c_str(), q.median, m.unit.c_str(), q.q1, q.q3,
                  m.values.size());
    } else {
      std::printf("  %-28s %14.6g %-10s%s\n", m.name.c_str(), q.median,
                  m.unit.c_str(), m.listed ? "" : " (shown, not gated)");
    }
  }
}

std::string metrics_json(const MetricSet& set, bool detail) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : set.all()) {
    if (!detail && !m.listed) continue;
    if (!first) out += ", ";
    first = false;
    const Quartiles q = quartiles(m.values);
    out += quoted(m.name) + ": {\"value\": " + num(q.median) +
           ", \"unit\": " + quoted(m.unit);
    if (detail) {
      out += ", \"q1\": " + num(q.q1) + ", \"q3\": " + num(q.q3) +
             ", \"present\": " + (m.present ? "true" : "false") +
             ", \"listed\": " + (m.listed ? "true" : "false") +
             ", \"values\": [";
      for (std::size_t i = 0; i < m.values.size(); ++i) {
        out += (i ? ", " : "") + num(m.values[i]);
      }
      out += "]";
    }
    out += "}";
  }
  return out + "}";
}

MetricSet end_to_end_metrics(const std::vector<Rep>& timed,
                             const std::vector<double>& setup_s,
                             const Inputs& in, const serving::Metrics& m) {
  std::vector<double> qps;
  for (const Rep& rep : timed) {
    qps.push_back(static_cast<double>(rep.arrivals) / rep.wall_s);
  }
  const double drop_ratio = ratio(static_cast<double>(m.drops()),
                                  static_cast<double>(m.arrivals()));
  MetricSet set;
  set.add("sim_qps", "arrivals/s", qps);
  set.add("setup_s", "s", setup_s);
  set.add("peak_rss_mb", "MB", peak_rss_mb());
  // Gated as attainment and served share: the violation and drop ratios
  // are near 0 on steady-sharded, where a relative bound means nothing.
  set.add("slo_attainment", "ratio", 1.0 - m.slo_violation_ratio());
  set.add("served_ratio", "ratio", 1.0 - drop_ratio);
  set.add("accuracy", "ratio", m.mean_accuracy());
  set.add("servers_mean", "workers", servers_mean(m));
  set.add("latency_p50_ms", "ms", m.latency().quantile(0.50) * 1e3);
  set.add("latency_p90_ms", "ms", m.latency().quantile(0.90) * 1e3);
  set.add("strict_attainment", "ratio", m.tier_attainment(0));
  set.add("planned_capacity_qps", "qps", in.capacity_qps);
  set.note("slo_violation_ratio", "ratio", m.slo_violation_ratio());
  set.note("drop_ratio", "ratio", drop_ratio);
  // The p99 sits on the SLO edge under replan-storm's overload: whether the
  // late tail passes 1% decides it, and it moved 243-702 ms between seeds.
  set.note("latency_p99_ms", "ms", m.latency().quantile(0.99) * 1e3);
  set.note("latency_p999_ms", "ms", m.latency().quantile(0.999) * 1e3);
  return set;
}

/// Median host cost of snapshotting a registry shaped like the run's: the
/// registry is rebuilt from the run's final snapshot and copied repeatedly.
double snapshot_cost_s(const obs::Snapshot& shape) {
  obs::Registry reg;
  for (const auto& [name, value] : shape.counters) reg.counter(name).add(value);
  for (const auto& h : shape.histograms) reg.histogram(h.name);
  std::vector<double> samples;
  for (int i = 0; i < 201; ++i) {
    const std::uint64_t t0 = steady_now_ns();
    const obs::Snapshot s = reg.snapshot();
    const std::uint64_t t1 = steady_now_ns();
    if (s.counters.empty()) return 0.0;
    samples.push_back(steady_elapsed_s(t0, t1));
  }
  return median(samples);
}

/// Host ns per ArrivalStream::next(), draining the workload's own stream
/// three times; `drained` receives the arrival count.
std::vector<double> arrival_stream_ns(const Inputs& in, std::uint64_t* drained) {
  std::vector<double> ns;
  for (int i = 0; i < 3; ++i) {
    trace::ArrivalStream stream(in.curve, in.cfg.arrivals);
    std::uint64_t n = 0;
    const std::uint64_t t0 = steady_now_ns();
    while (stream.next() >= 0.0) ++n;
    const std::uint64_t t1 = steady_now_ns();
    ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n + 1));
    *drained = n;
  }
  return ns;
}

/// Per-layer metrics from the traced process. Ledger identities
/// (plan + profile + snapshot + dataplane.self = exp.run) are taken from one
/// run, the wrapped run with the median wall time.
MetricSet per_layer_metrics(const std::vector<Rep>& plain,
                            const std::vector<Rep>& wrapped,
                            const std::vector<SetupTimes>& setups,
                            const std::vector<double>& next_ns,
                            std::uint64_t drained, const serving::Metrics& m) {
  std::vector<const Rep*> by_wall;
  for (const Rep& r : wrapped) by_wall.push_back(&r);
  std::sort(by_wall.begin(), by_wall.end(),
            [](const Rep* a, const Rep* b) { return a->wall_s < b->wall_s; });
  const Rep& rep = *by_wall[(by_wall.size() - 1) / 2];
  const obs::Snapshot& s = rep.result.obs;
  const double arrivals = static_cast<double>(m.arrivals());

  std::vector<double> generate_ms, profile_ms;
  for (const SetupTimes& t : setups) {
    generate_ms.push_back(t.trace_s * 1e3);
    profile_ms.push_back(t.profile_s * 1e3);
  }
  // plan(): pooled over every wrapped run for the latency distribution.
  std::vector<double> plan_ms_all;
  for (const Rep& w : wrapped) {
    for (const PlanRecord& p : w.plans) {
      plan_ms_all.push_back(steady_elapsed_s(p.start_ns, p.end_ns) * 1e3);
    }
  }
  double plan_total_s = 0.0;
  double step_s[3] = {0.0, 0.0, 0.0};
  double mode_count[3] = {0.0, 0.0, 0.0};
  serving::SolverStats solver;
  for (const PlanRecord& p : rep.plans) {
    plan_total_s += steady_elapsed_s(p.start_ns, p.end_ns);
    for (int i = 0; i < 3; ++i) step_s[i] += p.step_wall_s[i];
    if (p.selected_step >= 0) mode_count[p.selected_step] += 1.0;
    solver += p.solver;
  }
  const double profile_s = median(profile_ms) * 1e-3;
  const double snapshot_s = snapshot_cost_s(s);
  const double self_s = rep.wall_s - plan_total_s - profile_s - snapshot_s;

  const double items =
      static_cast<double>(s.counter_value("serving.stage.batch_items"));
  const double batches =
      static_cast<double>(s.counter_value("serving.stage.batches"));
  const double enqueued =
      static_cast<double>(s.counter_value("serving.stage.enqueued"));

  const bool fault_on = s.find_histogram("serving.fault.detect_ns") != nullptr;
  bool degrade_on = false;
  for (const auto& c : s.counters) {
    degrade_on = degrade_on || c.first.rfind("serving.degrade.", 0) == 0;
  }
  auto counter = [&s](const char* name) {
    return static_cast<double>(s.counter_value(name));
  };

  std::vector<double> shard_arrivals;
  for (const auto& c : s.counters) {
    if (c.first.rfind("exp.shard", 0) == 0) {
      shard_arrivals.push_back(static_cast<double>(c.second));
    }
  }
  double imbalance = 1.0;
  if (!shard_arrivals.empty()) {
    double sum = 0.0, mx = 0.0;
    for (double v : shard_arrivals) {
      sum += v;
      mx = std::max(mx, v);
    }
    imbalance = ratio(mx, sum / static_cast<double>(shard_arrivals.size()));
  }

  // Runs alternate plain/wrapped, so pair i ran back to back: the ratio
  // within a pair cancels the host drift between pairs.
  std::vector<double> pair_overhead;
  for (std::size_t i = 0; i < plain.size() && i < wrapped.size(); ++i) {
    pair_overhead.push_back(wrapped[i].wall_s / plain[i].wall_s - 1.0);
  }

  MetricSet set;
  set.add("trace.generate_ms", "ms", generate_ms);
  set.add("trace.next_ns", "ns", next_ns);
  set.add("trace.arrivals", "count", static_cast<double>(drained));
  set.add("profile.build_ms", "ms", profile_ms);
  set.add("plan.calls", "count", static_cast<double>(rep.plans.size()));
  set.add("plan.ms_p50", "ms", median(plan_ms_all));
  set.add("plan.ms_total", "ms", plan_total_s * 1e3);
  set.add("plan.share", "ratio", plan_total_s / rep.wall_s);
  set.add("plan.step_hardware_ms", "ms", step_s[0] * 1e3);
  set.add("plan.step_accuracy_ms", "ms", step_s[1] * 1e3);
  set.add("plan.step_overload_ms", "ms", step_s[2] * 1e3);
  set.add("plan.mode_hardware", "count", mode_count[0]);
  set.add("plan.mode_accuracy", "count", mode_count[1]);
  set.add("plan.mode_overload", "count", mode_count[2]);
  set.add("solver.milp_solves", "count", solver.milp_solves);
  set.add("solver.lp_iterations", "count", solver.lp_iterations);
  set.add("solver.nodes", "count", solver.nodes_explored);
  set.add("solver.warm_ratio", "ratio",
          ratio(solver.warm_start_hits,
                solver.warm_start_hits + solver.cold_solves));
  set.add("solver.epoch_reuse_ratio", "ratio",
          ratio(solver.epoch_warm_hits + solver.epoch_cache_skips,
                solver.milp_solves));
  set.add("dataplane.self_s", "s", self_s);
  set.add("dataplane.ns_per_arrival", "ns", ratio(self_s * 1e9, arrivals));
  set.add("dataplane.ns_per_item", "ns", ratio(self_s * 1e9, items));
  set.add("serving.admitted", "count", counter("serving.admitted"));
  set.add("serving.forwards_per_arrival", "fwd/arrival",
          ratio(static_cast<double>(m.forwards()), arrivals));
  set.add("serving.shed", "count", static_cast<double>(m.shed()));
  set.add("cluster.enqueued", "count", enqueued);
  set.add("cluster.batches", "count", batches);
  set.add("cluster.batch_size_mean", "items", ratio(items, batches));
  set.add("cluster.queue_wait_ms_mean", "ms",
          ratio(counter("serving.stage.queue_wait_ns"), enqueued) * 1e-6);
  set.add("cluster.execute_ms_mean", "ms",
          ratio(counter("serving.stage.execute_ns"), batches) * 1e-6);
  set.add("cluster.swaps", "count", counter("serving.stage.swaps"));
  set.add("cluster.swap_stall_s", "s",
          counter("serving.stage.swap_stall_ns") * 1e-9);
  const obs::HistogramStats* detect = s.find_histogram("serving.fault.detect_ns");
  set.add("fault.crashes", "count", counter("serving.fault.crashes"), fault_on);
  set.add("fault.detect_ms_p50", "ms",
          detect != nullptr ? detect->quantile(0.5) * 1e-6 : 0.0, fault_on);
  set.add("fault.stranded_retried", "count",
          counter("serving.fault.stranded_retried"), fault_on);
  set.add("fault.stranded_dropped", "count",
          counter("serving.fault.stranded_dropped"), fault_on);
  set.add("fault.replans", "count", counter("serving.fault.replans"),
          fault_on);
  set.add("degrade.admission_shed", "count",
          counter("serving.degrade.admission_shed"), degrade_on);
  set.add("degrade.overload_shed", "count",
          counter("serving.degrade.overload_shed"), degrade_on);
  set.add("degrade.retries", "count", counter("serving.degrade.retries"),
          degrade_on);
  set.add("degrade.plan_fallbacks", "count",
          counter("serving.degrade.plan_fallbacks"), degrade_on);
  set.add("obs.snapshot_us", "us", snapshot_s * 1e6);
  set.add("obs.trace_sampled", "count", counter("serving.trace.sampled"));
  set.add("exp.run_s", "s", rep.wall_s);
  set.add("exp.cpu_s", "s", rep.cpu_s);
  set.add("exp.cpu_per_wall", "ratio", rep.cpu_s / rep.wall_s);
  set.add("exp.shard_imbalance", "ratio", imbalance);
  set.add("bench.trace_overhead_frac", "ratio", pair_overhead);
  return set;
}

/// plan() latency p90, printed only when at least ten samples lie beyond it.
void print_plan_tail(const std::vector<Rep>& wrapped) {
  std::vector<double> ms;
  for (const Rep& w : wrapped) {
    for (const PlanRecord& p : w.plans) {
      ms.push_back(steady_elapsed_s(p.start_ns, p.end_ns) * 1e3);
    }
  }
  std::sort(ms.begin(), ms.end());
  if (ms.size() * 10 / 100 >= 10) {
    const double p90 = ms[static_cast<std::size_t>(0.9 * (ms.size() - 1))];
    std::printf("  %-28s %14.6g %-10s (pooled, n=%zu)\n", "plan.ms_p90", p90,
                "ms", ms.size());
  } else {
    std::printf("  %-28s %14s %-10s (n=%zu: under ten samples beyond)\n",
                "plan.ms_p90", "-", "ms", ms.size());
  }
}

void print_accounting(const std::string& workload, const Rep& rep) {
  const serving::Metrics& m = rep.result.metrics;
  const std::uint64_t policy_shed =
      m.shed() - m.shed_by_failure() - m.shed_by_degraded();
  std::printf(
      "\n[%s] accounting: arrivals %llu = completions %llu (on-time %llu, "
      "late %llu) + drops %llu\n"
      "  drops by cause: shed by policy %llu, shed by worker failure %llu, "
      "shed in degraded mode %llu, dropped in the pipeline %llu (of which "
      "worker failure %llu)\n"
      "  generator lateness: 0 s (arrivals are scheduled in simulated time)\n",
      workload.c_str(), static_cast<unsigned long long>(m.arrivals()),
      static_cast<unsigned long long>(m.completions()),
      static_cast<unsigned long long>(m.completions() - m.late()),
      static_cast<unsigned long long>(m.late()),
      static_cast<unsigned long long>(m.drops()),
      static_cast<unsigned long long>(policy_shed),
      static_cast<unsigned long long>(m.shed_by_failure()),
      static_cast<unsigned long long>(m.shed_by_degraded()),
      static_cast<unsigned long long>(m.drops() - m.shed()),
      static_cast<unsigned long long>(m.drops_by_failure()));
  for (int k = 0; k < serving::kNumTiers; ++k) {
    const serving::TierCounts& t = m.tier(k);
    if (t.arrivals == 0) continue;
    std::printf("  tier %d: arrivals %llu, on-time %llu, late %llu, drops %llu "
                "(shed %llu), attainment %.6f\n",
                k, static_cast<unsigned long long>(t.arrivals),
                static_cast<unsigned long long>(t.on_time),
                static_cast<unsigned long long>(t.late),
                static_cast<unsigned long long>(t.drops),
                static_cast<unsigned long long>(t.shed),
                m.tier_attainment(k));
  }
}

// ---------------------------------------------------------------------------
// Build hygiene
// ---------------------------------------------------------------------------

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string build_json(const Options& opt, int timed_reps) {
  return std::string("{\"build_type\": ") + quoted(LOKI_BENCH_BUILD_TYPE) +
         ", \"ndebug\": " + (kNdebug ? "true" : "false") +
         ", \"compiler\": " + quoted(compiler()) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"git_sha\": " + quoted(opt.git_sha) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"timed_reps\": " + std::to_string(timed_reps) + "}";
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool parse_options(int argc, char** argv, Options* opt, std::string* err) {
  try {
    Flags flags(argc, argv);
    opt->workload = flags.get_string("workload", "");
    opt->seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    opt->min_reps = static_cast<int>(flags.get_int("reps", 3));
    opt->seconds = flags.get_double("seconds", 0.0);
    opt->trace = flags.get_bool("trace", false);
    opt->smoke = flags.get_bool("smoke", false);
    opt->allow_debug = flags.get_bool("allow-debug", false);
    opt->out_dir = flags.get_string("out-dir", "bench_out");
    opt->git_sha = flags.get_string("git-sha", "unknown");
  } catch (const std::exception& e) {
    *err = e.what();
    return false;
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt->workload == w;
  if (!known) {
    *err = "unknown --workload '" + opt->workload +
           "' (diurnal, replan-storm, flash-degrade, steady-sharded)";
    return false;
  }
  if (opt->min_reps < 1 || opt->seconds < 0.0 || opt->seconds > 600.0) {
    *err = "--reps must be >= 1, --seconds in [0, 600]";
    return false;
  }
  return true;
}

/// Records failed checks; every failure names what differed.
struct Checks {
  std::vector<std::string> failures;
  int failed_runs = 0;

  void run(const std::string& label, const Rep& rep,
           const Fingerprint& reference) {
    std::vector<std::string> bad = accounting_failures(rep);
    const std::string diff = first_difference(reference,
                                              fingerprint(rep.result));
    if (!diff.empty()) bad.push_back("not bit-identical: " + diff);
    for (const std::string& b : bad) failures.push_back(label + ": " + b);
    if (!bad.empty()) ++failed_runs;
  }
};

/// One `run` span per timed run, with one `plan` child per plan() call.
void add_run_spans(const std::vector<Rep>& wrapped, SpanLog& spans) {
  for (std::size_t r = 0; r < wrapped.size(); ++r) {
    const Rep& w = wrapped[r];
    const std::string run = "rep" + std::to_string(r);
    const std::uint64_t root = spans.add(
        "run", 0, run, w.start_ns, w.end_ns,
        "{\"arrivals\": " + std::to_string(w.arrivals) + "}");
    for (const PlanRecord& p : w.plans) {
      std::string attrs =
          "{\"epoch\": " + std::to_string(p.epoch) +
          ", \"mode\": " + quoted(serving::to_string(p.mode)) +
          ", \"pivots\": " + std::to_string(p.solver.lp_iterations) +
          ", \"nodes\": " + std::to_string(p.solver.nodes_explored) +
          ", \"steps\": {";
      for (int i = 0; i < 3; ++i) {
        attrs += std::string(i ? ", " : "") + quoted(kStepNames[i]) + ": " +
                 num(p.step_wall_s[i]);
      }
      attrs += "}, \"selected\": " +
               quoted(p.selected_step >= 0 ? kStepNames[p.selected_step]
                                           : "none") +
               "}";
      spans.add("plan", root, run, p.start_ns, p.end_ns, attrs);
    }
  }
}

/// --smoke: one plain and one wrapped run at a tenth of the duration,
/// checked against the invariants and against each other bit-for-bit.
int run_smoke(const Options& opt) {
  SpanLog spans;
  SetupTimes t;
  const auto in = setup(opt, 0, spans, &t);
  const Rep plain = run_rep(*in, /*wrapped=*/false);
  const Rep wrapped = run_rep(*in, /*wrapped=*/true);
  Checks checks;
  const Fingerprint ref = fingerprint(plain.result);
  checks.run("plain", plain, ref);
  checks.run("wrapped", wrapped, ref);
  print_accounting(opt.workload, plain);
  std::printf("[%s] smoke: %llu arrivals, %d allocations, %zu wrapped plan() "
              "calls, %zu simulated series compared\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(plain.result.arrivals),
              plain.result.allocations, wrapped.plans.size(), ref.size());
  for (const std::string& f : checks.failures) {
    std::printf("CHECK FAILED %s\n", f.c_str());
  }
  if (checks.failures.empty()) {
    std::printf("[%s] smoke ok: invariants hold and wrapped bench.loki-milp "
                "is bit-identical to plain loki-milp\n",
                opt.workload.c_str());
    return 0;
  }
  std::printf("[%s] smoke FAILED\n", opt.workload.c_str());
  return 1;
}

int run_workload(const Options& opt, std::uint64_t origin_ns) {
  SpanLog spans;
  std::vector<SetupTimes> setup_times(static_cast<std::size_t>(kSetups));
  std::unique_ptr<Inputs> in;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    std::unique_ptr<Inputs> next =
        setup(opt, i, spans, &setup_times[static_cast<std::size_t>(i)]);
    setup_s.push_back(setup_times[static_cast<std::size_t>(i)].total_s);
    if (in != nullptr && next->capacity_qps != in->capacity_qps) {
      std::fprintf(stderr, "set-up is not deterministic: capacity %s vs %s\n",
                   num(next->capacity_qps).c_str(),
                   num(in->capacity_qps).c_str());
      return 1;
    }
    in = std::move(next);
  }

  Checks checks;
  int attempted = 0;
  // Warm-up: untimed; its fingerprint is the reference for every later run.
  const Rep warm = run_rep(*in, /*wrapped=*/false);
  ++attempted;
  const Fingerprint reference = fingerprint(warm.result);
  checks.run("warm-up", warm, reference);

  std::vector<Rep> plain, wrapped;
  double measured_s = 0.0;
  int pairs = 0;
  while (pairs < opt.min_reps || measured_s < opt.seconds) {
    if (opt.trace) {
      // Alternate the order so host drift hits both arms alike.
      const bool wrapped_first = pairs % 2 == 1;
      for (int k = 0; k < 2; ++k) {
        const bool w = (k == 0) == wrapped_first;
        Rep rep = run_rep(*in, w);
        measured_s += rep.wall_s;
        checks.run((w ? "wrapped run " : "plain run ") +
                       std::to_string(pairs),
                   rep, reference);
        rep.result.metrics = serving::Metrics();
        (w ? wrapped : plain).push_back(std::move(rep));
      }
      attempted += 2;
    } else {
      Rep rep = run_rep(*in, /*wrapped=*/false);
      measured_s += rep.wall_s;
      checks.run("run " + std::to_string(pairs), rep, reference);
      rep.result = exp::ExperimentResult();
      plain.push_back(std::move(rep));
      ++attempted;
    }
    ++pairs;
  }

  print_accounting(opt.workload, warm);
  const serving::Metrics& sim = warm.result.metrics;
  MetricSet set;
  if (opt.trace) {
    std::uint64_t drained = 0;
    const std::vector<double> next_ns = arrival_stream_ns(*in, &drained);
    // Every run's arrivals come from the stream trace.next_ns drained.
    if (drained != warm.result.arrivals) {
      checks.failures.push_back("trace.arrivals != simulated arrivals");
    }
    set = per_layer_metrics(plain, wrapped, setup_times, next_ns, drained,
                            sim);
    add_run_spans(wrapped, spans);
    std::filesystem::create_directories(opt.out_dir);
    const std::string path = opt.out_dir + "/" + opt.workload + ".spans.jsonl";
    if (!spans.write(path, origin_ns)) {
      checks.failures.push_back("could not write " + path);
    }
    print_metrics(("[" + opt.workload + "] per-layer metrics (traced run, " +
                   std::to_string(wrapped.size()) + " wrapped + " +
                   std::to_string(plain.size()) + " plain runs)")
                      .c_str(),
                  set);
    print_plan_tail(wrapped);
    std::printf("  spans written to %s\n", path.c_str());
  } else {
    set = end_to_end_metrics(plain, setup_s, *in, sim);
    print_metrics(("[" + opt.workload + "] end-to-end metrics (" +
                   std::to_string(plain.size()) + " timed runs, seed " +
                   std::to_string(opt.seed) + ")")
                      .c_str(),
                  set);
    std::printf("  %-28s %14llu %-10s\n", "latency samples",
                static_cast<unsigned long long>(
                    warm.result.metrics.latency().count()),
                "count");
  }

  for (const std::string& f : checks.failures) {
    std::printf("CHECK FAILED %s\n", f.c_str());
  }
  const bool correct = checks.failures.empty();
  const int timed = static_cast<int>(plain.size() + wrapped.size());

  // Detail file for run.sh / compare.py: every value, quartiles, build info.
  std::filesystem::create_directories(opt.out_dir);
  const std::string detail_path = opt.out_dir + "/" + opt.workload +
                                  (opt.trace ? ".trace" : "") + ".json";
  std::ofstream detail(detail_path);
  detail << "{\"workload\": " << quoted(opt.workload)
         << ", \"traced\": " << (opt.trace ? "true" : "false")
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"build\": " << build_json(opt, timed)
         << ", \"metrics\": " << metrics_json(set, /*detail=*/true) << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted,
              std::max(checks.failed_runs, correct ? 0 : 1),
              metrics_json(set, /*detail=*/false).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t origin_ns = steady_now_ns();
  // Replace the 5 s branch-and-bound wall budget with the deterministic node
  // budget before any solve, so plans never depend on host speed.
  setenv("LOKI_MILP_NO_TIME_LIMIT", "1", 1);

  Options opt;
  std::string err;
  if (!parse_options(argc, argv, &opt, &err)) {
    std::fprintf(stderr, "loki_bench: %s\n", err.c_str());
    return 2;
  }
  if ((std::string(LOKI_BENCH_BUILD_TYPE) != "Release" || !kNdebug) &&
      !opt.allow_debug) {
    std::fprintf(stderr,
                 "loki_bench: refusing to measure a '%s' build (NDEBUG %s); "
                 "build Release or pass --allow-debug\n",
                 LOKI_BENCH_BUILD_TYPE, kNdebug ? "on" : "off");
    return 2;
  }
  std::printf("loki_bench %s: workload %s, seed %llu, build %s, %s, nproc %ld, "
              "git %s\n",
              opt.smoke ? "smoke" : (opt.trace ? "traced" : "untraced"),
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              LOKI_BENCH_BUILD_TYPE, compiler().c_str(),
              sysconf(_SC_NPROCESSORS_ONLN), opt.git_sha.c_str());
  register_wrapped_strategy();
  return opt.smoke ? run_smoke(opt) : run_workload(opt, origin_ns);
}
