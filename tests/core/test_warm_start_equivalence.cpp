// The §8 warm-start contract, end to end: cached/warm-started solves are
// BYTE-identical to cold solves across seeded churn sequences — for both
// solvers, serial and thread-pool-parallel, at the controller level and
// through the cluster dispatcher's shared cross-cell plan cache.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "core/plan_cache.h"
#include "core/scenarios.h"
#include "solver_equivalence.h"
#include "util/thread_pool.h"

namespace odn::testing {
namespace {

class WarmStartEquivalence : public ::testing::Test {
 protected:
  // Restore the ODN_THREADS / hardware default after every test.
  void TearDown() override { util::set_thread_count(0); }
};

TEST_F(WarmStartEquivalence, HeuristicSerialChurn) {
  util::set_thread_count(1);
  for (const std::uint64_t seed : {3u, 11u}) {
    core::SolverCacheStats memo;
    run_churn_differential({.seed = seed, .steps = 200}, &memo);
    // The clique memo, the one memo inside the solvers, must stay live.
    EXPECT_GT(memo.clique_hits, 0u) << "seed " << seed;
  }
}

TEST_F(WarmStartEquivalence, HeuristicParallelChurn) {
  util::set_thread_count(4);
  for (const std::uint64_t seed : {3u, 11u})
    run_churn_differential({.seed = seed, .steps = 200});
}

// Beam search fans its per-branch (z, r) optimizations out over the pool;
// with the caches on it must still match the cold controller byte for byte.
TEST_F(WarmStartEquivalence, HeuristicBeamSerialChurn) {
  util::set_thread_count(1);
  for (const std::uint64_t seed : {3u, 11u})
    run_churn_differential({.seed = seed, .steps = 200, .beam_width = 4});
}

TEST_F(WarmStartEquivalence, HeuristicBeamParallelChurn) {
  util::set_thread_count(4);
  for (const std::uint64_t seed : {3u, 11u})
    run_churn_differential({.seed = seed, .steps = 200, .beam_width = 4});
}

TEST_F(WarmStartEquivalence, OptimalSerialChurn) {
  util::set_thread_count(1);
  run_churn_differential(
      {.seed = 5, .steps = 200, .use_optimal_solver = true});
}

TEST_F(WarmStartEquivalence, OptimalParallelChurn) {
  util::set_thread_count(4);
  run_churn_differential(
      {.seed = 5, .steps = 200, .use_optimal_solver = true});
}

// The same churn transcript must fall out of every thread count: warmth
// and parallelism compose without changing a single byte.
TEST_F(WarmStartEquivalence, TranscriptInvariantAcrossThreadCounts) {
  const auto transcript = [](std::size_t threads) {
    util::set_thread_count(threads);
    const core::DotInstance world = core::testing::random_instance(17);
    core::OffloadnnController::Options options;
    options.alpha = world.alpha;
    core::OffloadnnController controller(world.resources, world.radio,
                                         options);
    std::string log;
    for (std::size_t step = 0; step < 60; ++step) {
      core::DotTask task = world.tasks[step % world.tasks.size()];
      task.spec.name = "t" + std::to_string(step);
      log += serialize_plan(
          controller.probe_incremental(world.catalog, {task}));
      log += serialize_plan(
          controller.admit_incremental(world.catalog, {task}));
      if (step % 3 == 2) controller.release("t" + std::to_string(step - 1));
    }
    return log;
  };
  const std::string serial = transcript(1);
  EXPECT_EQ(transcript(2), serial);
  EXPECT_EQ(transcript(8), serial);
}

// Cluster-level differential: the dispatcher with its shared cross-cell
// plan cache must place every task exactly as a cache-less dispatcher
// does, under cost_probe (the policy that exercises the deduplicated
// probe fan-out), serially and in parallel.
class ClusterWarmStart : public ::testing::Test {
 protected:
  void TearDown() override { util::set_thread_count(0); }

  static std::string churn(bool shared_cache, bool parallel_probe,
                           std::size_t cells) {
    const core::DotInstance world = core::make_small_scenario(5);
    std::vector<cluster::CellSpec> specs;
    for (std::size_t i = 0; i < cells; ++i)
      specs.push_back(
          cluster::CellSpec{"cell-" + std::to_string(i), world.resources});
    core::OffloadnnController::Options controller_options;
    if (!shared_cache) {
      controller_options.cache.plan_cache = false;
      controller_options.cache.solver_cache = false;
    }
    cluster::ClusterDispatcher dispatcher(
        std::move(specs), world.radio, controller_options,
        {.policy = cluster::PlacementPolicy::kCostProbe,
         .parallel_probe = parallel_probe,
         .plan_cache = shared_cache});

    std::string log;
    util::Rng rng(99);
    std::vector<std::string> active;
    for (std::size_t step = 0; step < 80; ++step) {
      if (rng.bernoulli(0.3) && !active.empty()) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(active.size()) - 1));
        log += "release:" + active[pick] + ":" +
               std::to_string(dispatcher.release(active[pick])) + ";";
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      core::DotTask task = world.tasks[static_cast<std::size_t>(
          rng.uniform_int(0,
                          static_cast<std::int64_t>(world.tasks.size()) - 1))];
      task.spec.name = "t" + std::to_string(step);
      const cluster::AdmissionOutcome outcome =
          dispatcher.admit(world.catalog, task);
      log += "admit:" + task.spec.name + ":" +
             std::to_string(outcome.admitted) + ":" +
             std::to_string(outcome.cell) + ":" +
             std::to_string(outcome.preferred_cell) + ";";
      if (outcome.admitted) {
        log += serialize_task_plan(outcome.plan);
        active.push_back(task.spec.name);
      }
    }
    return log;
  }
};

TEST_F(ClusterWarmStart, SharedCacheMatchesColdDispatcherSerial) {
  util::set_thread_count(1);
  const std::string cold = churn(false, false, 3);
  EXPECT_EQ(churn(true, false, 3), cold);
}

TEST_F(ClusterWarmStart, SharedCacheMatchesColdDispatcherParallel) {
  util::set_thread_count(4);
  const std::string cold = churn(false, true, 3);
  EXPECT_EQ(churn(true, true, 3), cold);
  // And across the serial/parallel axis with the cache on.
  util::set_thread_count(1);
  EXPECT_EQ(churn(true, true, 3), cold);
}

TEST_F(ClusterWarmStart, EqualCellsCollapseToOneProbe) {
  util::set_thread_count(1);
  const core::DotInstance world = core::make_small_scenario(5);
  std::vector<cluster::CellSpec> specs;
  for (std::size_t i = 0; i < 4; ++i)
    specs.push_back(
        cluster::CellSpec{"cell-" + std::to_string(i), world.resources});
  cluster::ClusterDispatcher dispatcher(
      std::move(specs), world.radio, {},
      {.policy = cluster::PlacementPolicy::kCostProbe});
  ASSERT_NE(dispatcher.plan_cache(), nullptr);

  core::DotTask task = world.tasks[0];
  task.spec.name = "solo";
  (void)dispatcher.admit(world.catalog, task);
  // Four identical empty cells probe the same sub-instance: one solve,
  // three deduplicated siblings, zero (first round) shared-cache hits.
  const core::PlanCacheStats stats = dispatcher.plan_cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.insertions, 1u);
}

}  // namespace
}  // namespace odn::testing
