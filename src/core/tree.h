// The weighted-tree model of the DOT solution space — paper Sec. IV-A.
//
// One layer per task, in decreasing priority order. Each layer carries the
// task's clique: one vertex per *feasible* path option, sorted by increasing
// inference compute time. Feasibility filters applied at construction
// (paper: "vertices violating the accuracy constraint or associated with an
// inference compute time greater than Lτ are removed"):
//   - option accuracy >= A_τ (1f), and
//   - option inference compute time < L_τ (otherwise no bandwidth
//     allocation can ever meet the end-to-end bound (1g)).
//
// The tree is never materialized as Π|cliques| explicit vertices; solvers
// walk the per-layer vertex lists (the clique replication of Fig. 5 is
// implicit in DFS backtracking).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/dot_problem.h"
#include "core/fingerprint.h"

namespace odn::core {

class SolverCache;

struct TreeVertex {
  std::size_t task_index;     // original task index in the instance
  std::size_t option_index;   // index into that task's options
  double inference_time_s;    // clique sort key
  double accuracy;
  double memory_bytes;        // unique path memory (upper bound; sharing
                              // with other layers may reduce the increment)
  double input_bits;          // β(q): final tie-break (prefer compressed)
};

class SolutionTree {
 public:
  explicit SolutionTree(const DotInstance& instance);
  // Cache-aware construction: per-task cliques are memoized in `cache`
  // (keyed by the exact task encoding + catalog digest), so unchanged
  // tasks reuse their filtered-and-sorted clique across epochs. nullptr
  // falls back to the cold build; the built layers are bit-identical
  // either way. The cache must not be shared across threads.
  SolutionTree(const DotInstance& instance, SolverCache* cache);
  // As above with the instance's catalog digest precomputed —
  // overlay_digest(catalog_digest(instance.catalog), instance.deployed) —
  // so a solver that already encoded the catalog for its own keys does not
  // encode it a second time here. nullptr recomputes internally.
  SolutionTree(const DotInstance& instance, SolverCache* cache,
               const Fingerprint* digest);

  const DotInstance& instance() const noexcept { return instance_; }

  // Number of layers == number of tasks.
  std::size_t num_layers() const noexcept { return layers_.size(); }

  // Vertices of layer `t` (clique of the t-th highest-priority task),
  // sorted by increasing inference compute time. May be empty when no
  // option of that task passes the feasibility filters.
  std::span<const TreeVertex> layer(std::size_t layer_index) const;

  // Task index served by the given layer.
  std::size_t layer_task(std::size_t layer_index) const;

  // Construction statistics.
  std::size_t total_vertices() const noexcept { return total_vertices_; }
  std::size_t filtered_vertices() const noexcept { return filtered_; }
  // Upper bound on the number of branches (product of clique sizes,
  // saturating; empty cliques count as 1 since the task is simply skipped).
  double branch_count_estimate() const noexcept;

 private:
  const DotInstance& instance_;
  std::vector<std::vector<TreeVertex>> layers_;  // priority order
  std::size_t total_vertices_ = 0;
  std::size_t filtered_ = 0;
};

}  // namespace odn::core
