// The OffloaDNN heuristic — paper Sec. IV-B.
//
// Exploits the clique invariant (vertices sorted by increasing inference
// compute time) and selects the *first* branch: walking layers from the
// highest-priority task down, it picks at each layer the leftmost vertex
// that keeps cumulative unique-block memory within M; if no vertex fits,
// the task gets no path (rejected). One per-branch (z, r) optimization run
// then yields the final solution. Complexity O(T²) in the number of tasks
// (each layer scans a constant-bounded clique; the branch optimizer is
// O(T) per task).
//
// An optional beam-search extension (beam_width > 1) keeps the k best
// partial branches ranked by committed resource cost and optimizes each
// complete branch, returning the cheapest — a future-work-flavoured knob
// benchmarked in bench/bench_ablation_ordering.cpp.
#pragma once

#include <cstddef>

#include "core/solution.h"
#include "core/tree.h"

namespace odn::core {

// How each clique is ordered before first-fit selection — the design
// choice the paper motivates (inference-compute-time ordering); the other
// orderings exist for the ablation study.
enum class CliqueOrdering {
  kInferenceTime,  // the paper's choice
  kMemory,         // smallest unique path memory first
  kAccuracy,       // highest accuracy first (quality-greedy)
  kNone,           // catalog order (no sorting)
};

struct OffloadnnOptions {
  CliqueOrdering ordering = CliqueOrdering::kInferenceTime;
  std::size_t beam_width = 1;  // 1 = the paper's first-branch selection
};

class OffloadnnSolver {
 public:
  explicit OffloadnnSolver(OffloadnnOptions options = {});

  DotSolution solve(const DotInstance& instance) const;

 private:
  DotSolution solve_first_branch(const DotInstance& instance,
                                 const SolutionTree& tree) const;
  DotSolution solve_beam(const DotInstance& instance,
                         const SolutionTree& tree) const;

  OffloadnnOptions options_;
};

}  // namespace odn::core
