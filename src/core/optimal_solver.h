// Exhaustive DOT solver: traverses every branch of the solution tree
// (paper Sec. IV-B "the optimal solution can be obtained by traversing all
// branches"), runs the per-branch (z, r) optimization at each leaf, and
// returns the least-cost branch.
//
// DFS prunes a branch as soon as its cumulative unique block memory exceeds
// M (the paper's traversal rule). Complexity is O(N_max^T · T²); use only
// on small instances (the small-scale scenario, T <= 5).
#pragma once

#include <cstddef>

#include "core/solution.h"
#include "core/tree.h"

namespace odn::core {

struct OptimalSolverOptions {
  // Safety valve: abort with an exception when the tree has more branches
  // than this (protects against accidentally running on large instances).
  double max_branches = 5e7;
};

class OptimalSolver {
 public:
  explicit OptimalSolver(OptimalSolverOptions options = {});

  DotSolution solve(const DotInstance& instance) const;

 private:
  OptimalSolverOptions options_;
};

}  // namespace odn::core
