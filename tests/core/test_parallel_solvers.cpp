// Seeded differential tests for the parallel solver tier: for every random
// instance, the pool-parallel OptimalSolver fan-out, the beam-width>1
// OffloadnnSolver and the controller's plan must produce results
// BIT-IDENTICAL to the serial escape hatch (set_thread_count(1)).
// Objectives, per-task decisions, chosen block paths and branch counts are
// all compared with exact equality — no tolerances.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/controller.h"
#include "core/offloadnn_solver.h"
#include "core/optimal_solver.h"
#include "core/scenarios.h"
#include "fuzz_instances.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace odn::core {
namespace {

using testing::random_instance;

// Runs solve() under both thread counts and returns {serial, parallel}.
std::pair<DotSolution, DotSolution> solve_both(
    const std::function<DotSolution()>& solve) {
  util::set_thread_count(1);
  DotSolution serial = solve();
  util::set_thread_count(4);
  DotSolution parallel = solve();
  util::set_thread_count(0);
  return {std::move(serial), std::move(parallel)};
}

void expect_decisions_identical(const std::vector<TaskDecision>& serial,
                                const std::vector<TaskDecision>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    SCOPED_TRACE(::testing::Message() << "task " << t);
    EXPECT_EQ(serial[t].has_path, parallel[t].has_path);
    EXPECT_EQ(serial[t].option_index, parallel[t].option_index);
    // Bit-identity, not near-equality: the parallel path must run the very
    // same arithmetic in the very same order.
    EXPECT_EQ(serial[t].admission_ratio, parallel[t].admission_ratio);
    EXPECT_EQ(serial[t].rbs, parallel[t].rbs);
  }
}

void expect_block_paths_identical(const DotInstance& instance,
                                  const std::vector<TaskDecision>& serial,
                                  const std::vector<TaskDecision>& parallel) {
  for (std::size_t t = 0; t < serial.size(); ++t) {
    if (!serial[t].admitted() || !parallel[t].admitted()) continue;
    const auto& serial_blocks =
        instance.tasks[t].options[serial[t].option_index].path.blocks;
    const auto& parallel_blocks =
        instance.tasks[t].options[parallel[t].option_index].path.blocks;
    EXPECT_EQ(serial_blocks, parallel_blocks) << "task " << t;
  }
}

class ParallelSolvers : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void TearDown() override { util::set_thread_count(0); }
};

TEST_P(ParallelSolvers, OptimalSolverMatchesSerial) {
  const DotInstance instance = random_instance(GetParam());
  const auto [serial, parallel] =
      solve_both([&] { return OptimalSolver{}.solve(instance); });

  EXPECT_EQ(serial.cost.objective, parallel.cost.objective) << instance.name;
  EXPECT_EQ(serial.cost.admitted_tasks, parallel.cost.admitted_tasks);
  EXPECT_EQ(serial.cost.memory_bytes, parallel.cost.memory_bytes);
  EXPECT_EQ(serial.cost.training_cost_s, parallel.cost.training_cost_s);
  // Default options disable bound pruning, so even the branch count is
  // invariant under the first-layer fan-out.
  EXPECT_EQ(serial.branches_explored, parallel.branches_explored)
      << instance.name;
  expect_decisions_identical(serial.decisions, parallel.decisions);
  expect_block_paths_identical(instance, serial.decisions,
                               parallel.decisions);
}

TEST_P(ParallelSolvers, OptimalSolverWithPruningMatchesSerialOptimum) {
  const DotInstance instance = random_instance(GetParam());
  OptimalSolverOptions options;
  options.bound_pruning = true;
  const auto [serial, parallel] =
      solve_both([&] { return OptimalSolver{options}.solve(instance); });

  // Subtrees prune against local incumbents only, so branch counts may
  // differ — the optimum and its decisions must not.
  EXPECT_EQ(serial.cost.objective, parallel.cost.objective) << instance.name;
  expect_decisions_identical(serial.decisions, parallel.decisions);
}

TEST_P(ParallelSolvers, BeamSolverMatchesSerial) {
  const DotInstance instance = random_instance(GetParam());
  OffloadnnOptions options;
  options.beam_width = 4;
  const auto [serial, parallel] =
      solve_both([&] { return OffloadnnSolver{options}.solve(instance); });

  EXPECT_EQ(serial.cost.objective, parallel.cost.objective) << instance.name;
  EXPECT_EQ(serial.branches_explored, parallel.branches_explored);
  expect_decisions_identical(serial.decisions, parallel.decisions);
  expect_block_paths_identical(instance, serial.decisions,
                               parallel.decisions);
}

TEST_P(ParallelSolvers, ControllerPlanMatchesSerial) {
  const DotInstance instance = random_instance(GetParam());
  const auto admit = [&] {
    OffloadnnController controller(instance.resources, instance.radio);
    return controller.admit(instance.catalog, instance.tasks);
  };
  util::set_thread_count(1);
  const DeploymentPlan serial = admit();
  util::set_thread_count(4);
  const DeploymentPlan parallel = admit();

  EXPECT_EQ(serial.solution.cost.objective, parallel.solution.cost.objective);
  EXPECT_EQ(serial.deployed_blocks, parallel.deployed_blocks);
  EXPECT_EQ(serial.memory_committed_bytes, parallel.memory_committed_bytes);
  EXPECT_EQ(serial.rbs_committed, parallel.rbs_committed);
  ASSERT_EQ(serial.tasks.size(), parallel.tasks.size());
  for (std::size_t t = 0; t < serial.tasks.size(); ++t) {
    SCOPED_TRACE(::testing::Message() << "task " << t);
    const TaskPlan& s = serial.tasks[t];
    const TaskPlan& p = parallel.tasks[t];
    EXPECT_EQ(s.task_name, p.task_name);
    EXPECT_EQ(s.admitted, p.admitted);
    EXPECT_EQ(s.admission_ratio, p.admission_ratio);
    EXPECT_EQ(s.admitted_rate, p.admitted_rate);
    EXPECT_EQ(s.slice_rbs, p.slice_rbs);
    EXPECT_EQ(s.blocks, p.blocks);
    EXPECT_EQ(s.expected_latency_s, p.expected_latency_s);
    EXPECT_EQ(s.accuracy, p.accuracy);
  }
}

// The traversal counters of one OptimalSolver run: without bound pruning
// the first-layer fan-out visits exactly the vertices and leaves the
// serial DFS does, so both series must read the same at 1 and 4 threads.
TEST(ParallelOptimalSolver, TraversalCountersMatchSerialWithoutPruning) {
  const DotInstance instance = make_small_scenario(5);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::Counter& visited =
      registry.counter("odn_solver_optimal_vertices_visited_total");
  const obs::Counter& branches =
      registry.counter("odn_solver_optimal_branches_explored_total");
  const auto counts = [&](std::size_t threads) {
    util::set_thread_count(threads);
    const std::uint64_t visited_before = visited.value();
    const std::uint64_t branches_before = branches.value();
    const DotSolution solution = OptimalSolver{}.solve(instance);
    util::set_thread_count(0);
    EXPECT_EQ(branches.value() - branches_before,
              solution.branches_explored);
    return std::make_pair(visited.value() - visited_before,
                          branches.value() - branches_before);
  };
  const auto serial = counts(1);
  const auto parallel = counts(4);
  EXPECT_GT(serial.first, 0u);
  EXPECT_EQ(serial.first, parallel.first) << "vertices visited";
  EXPECT_EQ(serial.second, parallel.second) << "branches explored";
}

// >= 50 instances, disjoint from the 1000-1030 range the plain fuzz suite
// sweeps.
INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSolvers,
                         ::testing::Range<std::uint64_t>(2000, 2052));

}  // namespace
}  // namespace odn::core
