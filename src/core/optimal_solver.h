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

class SolverCache;

struct OptimalSolverOptions {
  // When true, additionally prunes branches whose partial cost lower bound
  // already exceeds the incumbent (branch-and-bound extension; the paper's
  // optimum enumerates everything, so this defaults to off).
  bool bound_pruning = false;
  // Safety valve: abort with an exception when the tree has more branches
  // than this (protects against accidentally running on large instances).
  double max_branches = 5e7;
};

class OptimalSolver {
 public:
  explicit OptimalSolver(OptimalSolverOptions options = {});

  DotSolution solve(const DotInstance& instance) const;
  // Warm-startable solve: `cache` memoizes per-task cliques. Results are
  // bit-identical to the cold overload; see DESIGN.md §8.
  DotSolution solve(const DotInstance& instance, SolverCache* cache) const;
  // As above with the instance catalog's key digest precomputed by the
  // caller (see OffloadnnSolver::solve): skips the O(blocks) catalog
  // encode the clique keys otherwise pay.
  DotSolution solve(const DotInstance& instance, SolverCache* cache,
                    const Fingerprint* catalog_fp) const;

 private:
  OptimalSolverOptions options_;
};

}  // namespace odn::core
