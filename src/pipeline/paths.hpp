// Augmented-graph machinery (§4.1): variant-level root-to-sink paths, their
// end-to-end accuracies Â(p), and the request multipliers m(p, i, k) of
// Eq. 1. These are the objects the Resource Manager's MILP is written over.
#pragma once

#include <vector>

#include "pipeline/graph.hpp"

namespace loki::pipeline {

/// One root-to-sink path through the augmented graph: a variant assignment
/// for each task along the unique root->sink task path.
struct VariantPath {
  int sink = -1;
  std::vector<int> tasks;     // task ids, root first, sink last
  std::vector<int> variants;  // variants[i] = variant index for tasks[i]
};

/// A variant assignment along a root->`tasks.back()` prefix. The MILP uses
/// prefixes for its multi-sink routing-consistency constraints: sinks that
/// share an upstream task must send the same flow through each variant
/// prefix of it, because hop-by-hop routing cannot split a shared prefix
/// differently per sink.
using VariantPrefix = VariantPath;  // same shape; "sink" = last task

/// The augmented graph itself (§4.1): one vertex per (task, variant), an
/// edge (i,k) -> (j,k') for every task edge (i,j) and all k, k'. Exposed for
/// tests and tooling; path enumeration below walks it implicitly.
class AugmentedGraph {
 public:
  explicit AugmentedGraph(const PipelineGraph& g);

  struct Vertex {
    int task;
    int variant;
  };

  int num_vertices() const { return static_cast<int>(vertices_.size()); }
  const Vertex& vertex(int id) const {
    return vertices_.at(static_cast<std::size_t>(id));
  }
  int vertex_id(int task, int variant) const;
  const std::vector<int>& out_edges(int vertex_id) const {
    return adj_.at(static_cast<std::size_t>(vertex_id));
  }
  int num_edges() const;

 private:
  std::vector<Vertex> vertices_;
  std::vector<std::vector<int>> adj_;
  std::vector<int> first_vertex_of_task_;  // vertex-id of (task, 0)
};

/// All variant paths from the root to `sink`, in lexicographic variant
/// order (deterministic). Size = product of catalog sizes along the path.
std::vector<VariantPath> enumerate_variant_paths(const PipelineGraph& g,
                                                 int sink);

/// All variant prefixes from the root to `task` inclusive.
std::vector<VariantPrefix> enumerate_variant_prefixes(const PipelineGraph& g,
                                                      int task);

/// End-to-end accuracy Â(p): product of the normalized accuracies of the
/// variants on the path. (Our synthetic equivalent of the paper's profiled
/// per-path accuracy; multiplicative composition is the standard model for
/// cascaded tasks and preserves the orderings the algorithms depend on.)
double path_accuracy(const PipelineGraph& g, const VariantPath& p);

/// m(p, pos): expected requests arriving at path position `pos` per request
/// entering the root (Eq. 1) — the product over strict predecessors of
/// r(i',k') * branch_ratio(i' -> next). Position 0 (the root) is 1.0.
/// `factors` supplies r (use default_mult_factors or runtime estimates).
double path_multiplier(const PipelineGraph& g, const MultFactorTable& factors,
                       const VariantPath& p, std::size_t pos);

/// True if `p` extends `prefix` (same leading tasks and variants).
bool path_extends(const VariantPath& p, const VariantPrefix& prefix);

}  // namespace loki::pipeline
