// Canonical text rendering of an allocation plan: the digest form that the
// planner goldens hash and the allocator ablation compares.
#pragma once

#include <string>

#include "serving/types.hpp"

namespace loki::serving {

/// Versioned line format with every field of the plan: mode, the scalars,
/// then one line per instance group, path flow and (task, variant) latency
/// budget. Doubles are printed with round-trip precision, so two plans print
/// the same text only if they are equal field for field.
std::string plan_to_text(const AllocationPlan& plan);

}  // namespace loki::serving
