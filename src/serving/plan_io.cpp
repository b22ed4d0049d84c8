#include "serving/plan_io.hpp"

#include <iomanip>
#include <limits>
#include <sstream>

namespace loki::serving {

std::string plan_to_text(const AllocationPlan& plan) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "loki-plan v1\n";
  os << "mode " << to_string(plan.mode) << "\n";
  os << "expected_accuracy " << plan.expected_accuracy << "\n";
  os << "served_fraction " << plan.served_fraction << "\n";
  os << "servers_used " << plan.servers_used << "\n";
  os << "demand_qps " << plan.demand_qps << "\n";
  os << "solve_time_s " << plan.solve_time_s << "\n";
  os << "feasible " << (plan.feasible ? 1 : 0) << "\n";
  for (const auto& ic : plan.instances) {
    os << "instance " << ic.task << " " << ic.variant << " " << ic.batch
       << " " << ic.replicas << "\n";
  }
  for (const auto& flow : plan.flows) {
    os << "flow " << flow.path.sink << " " << flow.fraction << " "
       << flow.path.tasks.size();
    for (std::size_t i = 0; i < flow.path.tasks.size(); ++i) {
      os << " " << flow.path.tasks[i] << " " << flow.path.variants[i];
    }
    os << "\n";
  }
  for (const auto& [key, budget] : plan.latency_budget_s) {
    os << "budget " << key.first << " " << key.second << " " << budget
       << "\n";
  }
  return os.str();
}

}  // namespace loki::serving
