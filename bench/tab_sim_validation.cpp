// Simulator-validation reproduction (§6.2 "Validating the simulator").
//
// The paper runs the same workload on the 20-GPU prototype and on the
// discrete-event simulator and reports average differences of 1.2% in
// accuracy, 1.8% in SLO violation ratio, and 1.5% in servers used — small
// because DNN inference is highly deterministic.
//
// We model the prototype as the simulator plus the nondeterminism a real
// cluster adds: execution-time jitter, network-delay jitter, and profiler
// measurement noise. The "simulator" run is the ideal deterministic one.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/flags.hpp"
#include "common/team.hpp"
#include "exp/experiment.hpp"
#include "pipeline/pipelines.hpp"
#include "trace/generator.hpp"

using namespace loki;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double duration_s = flags.get_double("duration", 600.0);

  bench::banner("§6.2 — simulator vs (simulated) prototype validation");

  const auto graph = pipeline::traffic_analysis_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kAzureDiurnal;
  tcfg.duration_s = duration_s;
  tcfg.peak_qps = 700.0;
  tcfg.seed = 9;
  const auto curve = trace::generate_trace(tcfg);

  exp::ExperimentConfig ideal;
  ideal.system = "loki-milp";

  exp::ExperimentConfig prototype = ideal;
  prototype.system_cfg.exec_noise_frac = 0.06;  // kernel-time variance
  prototype.system_cfg.comm_jitter_frac = 0.30; // network delays
  prototype.system_cfg.straggler_prob = 0.04;   // contention stragglers
  prototype.profiler_noise_frac = 0.03;         // measured-profile error
  prototype.profiler_seed = 1234;

  exp::ExperimentResult sim_r, proto_r;
  Team team(2);
  team.run(2, [&](std::size_t i) {
    if (i == 0) sim_r = exp::run_experiment(graph, curve, ideal);
    else proto_r = exp::run_experiment(graph, curve, prototype);
  });

  auto pct_diff = [](double a, double b) {
    return 100.0 * std::abs(a - b);
  };
  const double acc_diff = pct_diff(sim_r.mean_accuracy, proto_r.mean_accuracy);
  const double slo_diff =
      pct_diff(sim_r.slo_violation_ratio, proto_r.slo_violation_ratio);
  const double srv_diff =
      100.0 *
      std::abs(sim_r.mean_servers_used - proto_r.mean_servers_used) / 20.0;

  std::printf("\n%-14s %12s %12s %12s\n", "run", "accuracy", "violations",
              "servers");
  std::printf("%-14s %12.4f %12.4f %12.2f\n", "simulator",
              sim_r.mean_accuracy, sim_r.slo_violation_ratio,
              sim_r.mean_servers_used);
  std::printf("%-14s %12.4f %12.4f %12.2f\n", "prototype*",
              proto_r.mean_accuracy, proto_r.slo_violation_ratio,
              proto_r.mean_servers_used);
  std::printf("\nabs. difference, accuracy   : %.2f%%  [paper 1.2%%]\n",
              acc_diff);
  std::printf("abs. difference, violations : %.2f%%  [paper 1.8%%]\n",
              slo_diff);
  std::printf("abs. difference, servers    : %.2f%%  [paper 1.5%%]\n",
              srv_diff);
  std::printf("(*prototype = simulator + exec/network jitter, stragglers "
              "and profile noise)\n");

  CsvTable csv({"metric", "simulator", "prototype", "abs_diff_pct",
                "paper_diff_pct"});
  csv.add_row({std::string("accuracy"), sim_r.mean_accuracy,
               proto_r.mean_accuracy, acc_diff, 1.2});
  csv.add_row({std::string("slo_violation_ratio"), sim_r.slo_violation_ratio,
               proto_r.slo_violation_ratio, slo_diff, 1.8});
  csv.add_row({std::string("servers_used"), sim_r.mean_servers_used,
               proto_r.mean_servers_used, srv_diff, 1.5});
  csv.write(bench::output_dir() + "/tab_sim_validation.csv");
  std::printf("  wrote %s/tab_sim_validation.csv\n",
              bench::output_dir().c_str());
  return 0;
}
