#include "core/optimal_solver.h"

#include <gtest/gtest.h>

#include "core/branch_optimizer.h"
#include "core/offloadnn_solver.h"
#include "core/scenarios.h"
#include "test_instances.h"

namespace odn::core {
namespace {

TEST(OptimalSolver, SolvesTwoTaskInstance) {
  const DotInstance instance = testing::two_task_instance();
  const DotSolution solution = OptimalSolver{}.solve(instance);
  EXPECT_EQ(solution.solver_name, "optimum");
  EXPECT_EQ(solution.decisions.size(), 2u);
  EXPECT_TRUE(DotEvaluator(instance).feasible(solution.decisions));
  // Ample resources: both tasks fully admitted.
  EXPECT_NEAR(solution.cost.weighted_admission, 1.3, 1e-6);
}

TEST(OptimalSolver, ExploresEveryBranch) {
  const DotInstance instance = testing::two_task_instance();
  const DotSolution solution = OptimalSolver{}.solve(instance);
  // (2 options + skip) per task = 9 leaves.
  EXPECT_EQ(solution.branches_explored, 9u);
}

TEST(OptimalSolver, MatchesExplicitEnumeration) {
  // Brute-force every (choice0, choice1) pair through the same branch
  // optimizer; the solver must return the best of them.
  const DotInstance instance = testing::two_task_instance();
  const BranchOptimizer optimizer(instance);
  const DotEvaluator evaluator(instance);

  double best = 1e18;
  for (int c0 = -1; c0 < 2; ++c0) {
    for (int c1 = -1; c1 < 2; ++c1) {
      std::vector<BranchChoice> choices(2);
      if (c0 >= 0) choices[0] = static_cast<std::size_t>(c0);
      if (c1 >= 0) choices[1] = static_cast<std::size_t>(c1);
      best = std::min(
          best, evaluator.evaluate(optimizer.optimize(choices)).objective);
    }
  }
  const DotSolution solution = OptimalSolver{}.solve(instance);
  EXPECT_NEAR(solution.cost.objective, best, 1e-12);
}

TEST(OptimalSolver, RejectsInfeasibleAccuracyTask) {
  const DotInstance instance = testing::infeasible_accuracy_instance();
  const DotSolution solution = OptimalSolver{}.solve(instance);
  EXPECT_FALSE(solution.decisions[0].admitted());
  EXPECT_EQ(solution.cost.admitted_tasks, 0u);
}

TEST(OptimalSolver, RejectsInfeasibleLatencyTask) {
  const DotInstance instance = testing::infeasible_latency_instance();
  const DotSolution solution = OptimalSolver{}.solve(instance);
  EXPECT_FALSE(solution.decisions[0].admitted());
}

TEST(OptimalSolver, NeverWorseThanHeuristic) {
  for (const std::size_t num_tasks : {1u, 2u, 3u, 4u}) {
    const DotInstance instance = make_small_scenario(num_tasks);
    const DotSolution optimal = OptimalSolver{}.solve(instance);
    const DotSolution heuristic = OffloadnnSolver{}.solve(instance);
    EXPECT_LE(optimal.cost.objective, heuristic.cost.objective + 1e-9)
        << "T=" << num_tasks;
  }
}

TEST(OptimalSolver, FeasibleOnSmallScenarios) {
  for (const std::size_t num_tasks : {1u, 3u, 5u}) {
    const DotInstance instance = make_small_scenario(num_tasks);
    const DotSolution solution = OptimalSolver{}.solve(instance);
    const DotEvaluator evaluator(instance);
    const auto violations = evaluator.violations(solution.decisions);
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations.front());
  }
}

TEST(OptimalSolver, MemoryPruningRespectsCapacity) {
  DotInstance instance = testing::two_task_instance();
  // Not even one full path fits: everything must be rejected.
  instance.resources.memory_capacity_bytes = 5e6;
  instance.finalize();
  const DotSolution solution = OptimalSolver{}.solve(instance);
  EXPECT_EQ(solution.cost.admitted_tasks, 0u);
}

TEST(OptimalSolver, BranchLimitGuardThrows) {
  OptimalSolverOptions options;
  options.max_branches = 2;
  const DotInstance instance = testing::two_task_instance();
  EXPECT_THROW(OptimalSolver{options}.solve(instance), std::runtime_error);
}

TEST(OptimalSolver, ReportsSolveTime) {
  const DotInstance instance = make_small_scenario(2);
  const DotSolution solution = OptimalSolver{}.solve(instance);
  EXPECT_GT(solution.solve_time_s, 0.0);
}

}  // namespace
}  // namespace odn::core
