#include "fault/detector.hpp"

#include "common/check.hpp"

namespace loki::fault {

std::string to_string(WorkerHealth h) {
  switch (h) {
    case WorkerHealth::kAlive: return "alive";
    case WorkerHealth::kSuspect: return "suspect";
    case WorkerHealth::kDead: return "dead";
  }
  return "?";
}

FailureDetector::FailureDetector(DetectorConfig cfg, int num_workers)
    : cfg_(cfg) {
  LOKI_CHECK(num_workers >= 0);
  states_.resize(static_cast<std::size_t>(num_workers));
}

FailureDetector::ReportResult FailureDetector::report(int worker,
                                                      int incarnation,
                                                      double now) {
  LOKI_CHECK(worker >= 0 && worker < num_workers());
  State& st = states_[static_cast<std::size_t>(worker)];
  if (incarnation < st.incarnation) return ReportResult::kStale;
  st.incarnation = incarnation;
  st.last_report = now;
  if (st.health != WorkerHealth::kAlive) {
    transition(worker, WorkerHealth::kAlive, now);
  }
  return ReportResult::kAccepted;
}

void FailureDetector::evaluate(double now) {
  if (!cfg_.enabled) return;
  for (int w = 0; w < num_workers(); ++w) {
    State& st = states_[static_cast<std::size_t>(w)];
    const double phi = (now - st.last_report) / kHeartbeatPeriodS;
    if (phi >= kDeadPhi) {
      if (st.health != WorkerHealth::kDead) {
        transition(w, WorkerHealth::kDead, now);
      }
    } else if (phi >= kSuspectPhi) {
      if (st.health == WorkerHealth::kAlive) {
        transition(w, WorkerHealth::kSuspect, now);
      }
    }
    // phi below kSuspectPhi never downgrades suspicion here: only an
    // accepted report (new evidence of life) transitions back to alive.
  }
}

std::vector<HealthTransition> FailureDetector::drain_transitions() {
  std::vector<HealthTransition> out;
  out.swap(pending_);
  return out;
}

WorkerHealth FailureDetector::health(int worker) const {
  LOKI_CHECK(worker >= 0 && worker < num_workers());
  return states_[static_cast<std::size_t>(worker)].health;
}

int FailureDetector::incarnation(int worker) const {
  LOKI_CHECK(worker >= 0 && worker < num_workers());
  return states_[static_cast<std::size_t>(worker)].incarnation;
}

double FailureDetector::phi(int worker, double now) const {
  LOKI_CHECK(worker >= 0 && worker < num_workers());
  return (now - states_[static_cast<std::size_t>(worker)].last_report) /
         kHeartbeatPeriodS;
}

void FailureDetector::transition(int worker, WorkerHealth to, double now) {
  State& st = states_[static_cast<std::size_t>(worker)];
  const WorkerHealth from = st.health;
  if (from == to) return;
  if (from == WorkerHealth::kDead) --dead_count_;
  if (from == WorkerHealth::kSuspect) --suspect_count_;
  if (to == WorkerHealth::kDead) ++dead_count_;
  if (to == WorkerHealth::kSuspect) ++suspect_count_;
  st.health = to;
  pending_.push_back({now, worker, st.incarnation, from, to});
}

}  // namespace loki::fault
