// Determinism and hand-off differentials, end to end:
//  - WarmStartEquivalence: seeded churn on one controller is
//    byte-identical whether admissions commit their own probe's plan or
//    call admit_incremental (the Serial cases, at one thread), and
//    serially and on four threads (the Parallel cases), for both solvers;
//  - CostProbeHandOff: a cost_probe dispatcher, which commits the plan its
//    own probe solved, places every task exactly as a reference loop of
//    probe_incremental/admit_incremental calls on twin controllers does;
//    and a plan whose controller state has moved on cannot be committed.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/dispatcher.h"
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
  for (const std::uint64_t seed : {3u, 11u})
    run_hand_off_differential({.seed = seed, .steps = 200});
}

TEST_F(WarmStartEquivalence, HeuristicParallelChurn) {
  for (const std::uint64_t seed : {3u, 11u})
    run_churn_differential({.seed = seed, .steps = 200});
}

// Beam search fans its per-branch (z, r) optimizations out over the pool;
// its probes must still commit exactly as admit_incremental would, and it
// must match the serial churn byte for byte.
TEST_F(WarmStartEquivalence, HeuristicBeamSerialChurn) {
  util::set_thread_count(1);
  for (const std::uint64_t seed : {3u, 11u})
    run_hand_off_differential(
        {.seed = seed, .steps = 200, .beam_width = 4});
}

TEST_F(WarmStartEquivalence, HeuristicBeamParallelChurn) {
  for (const std::uint64_t seed : {3u, 11u})
    run_churn_differential({.seed = seed, .steps = 200, .beam_width = 4});
}

TEST_F(WarmStartEquivalence, OptimalSerialChurn) {
  util::set_thread_count(1);
  run_hand_off_differential(
      {.seed = 5, .steps = 200, .use_optimal_solver = true});
}

TEST_F(WarmStartEquivalence, OptimalParallelChurn) {
  run_churn_differential(
      {.seed = 5, .steps = 200, .use_optimal_solver = true});
}

// The same churn transcript must fall out of every thread count.
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

// Cluster-level differential for the probe hand-off. The reference is
// what a cost_probe admission means without it: probe every accepting
// cell, pick the lowest admitted objective (strict <, ties to the lowest
// index; the first accepting cell when every probe rejects), then call
// admit_incremental on that cell and on each spillover cell in index
// order until one admits. The dispatcher must produce the same outcome
// and leave every cell in the same state, through churn with releases,
// rejections, spillover walks and a cell that stops accepting.
class CostProbeHandOff : public ::testing::Test {
 protected:
  void TearDown() override { util::set_thread_count(0); }

  struct Transcripts {
    std::string dispatcher;
    std::string reference;
    std::size_t rejections = 0;
    std::set<std::size_t> cells_used;
  };

  static Transcripts churn(bool parallel_probe) {
    const core::DotInstance world = core::make_small_scenario(5);
    edge::EdgeResources base = world.resources;
    base.memory_capacity_bytes *= 0.5;
    base.compute_capacity_s *= 0.5;
    const std::vector<cluster::CellSpec> specs =
        cluster::make_cells(4, base, /*seed=*/3);
    const core::OffloadnnController::Options controller_options;
    cluster::ClusterDispatcher dispatcher(
        specs, world.radio, controller_options,
        {.policy = cluster::PlacementPolicy::kCostProbe,
         .spillover = true,
         .parallel_probe = parallel_probe});
    std::vector<core::OffloadnnController> twins;
    twins.reserve(specs.size());
    for (const cluster::CellSpec& spec : specs)
      twins.emplace_back(spec.resources, world.radio, controller_options);
    std::vector<bool> accepting(specs.size(), true);

    const auto reference_admit = [&](const core::DotTask& task) {
      std::string log;
      std::size_t first = cluster::kNoCell;
      for (std::size_t i = 0; i < twins.size(); ++i)
        if (accepting[i] && first == cluster::kNoCell) first = i;
      std::size_t best = first;
      double best_objective = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < twins.size(); ++i) {
        if (!accepting[i]) continue;
        const core::DeploymentPlan probe =
            twins[i].probe_incremental(world.catalog, {task});
        if (probe.tasks[0].admitted &&
            probe.solution.cost.objective < best_objective) {
          best = i;
          best_objective = probe.solution.cost.objective;
        }
      }
      std::vector<std::size_t> order{best};
      for (std::size_t i = 0; i < twins.size(); ++i)
        if (i != best && accepting[i]) order.push_back(i);
      for (const std::size_t i : order) {
        const core::DeploymentPlan plan =
            twins[i].admit_incremental(world.catalog, {task});
        if (plan.tasks[0].admitted)
          return "admit:" + task.spec.name + ":1:" + std::to_string(i) +
                 ":" + std::to_string(best) + ";" +
                 serialize_task_plan(plan.tasks[0]);
      }
      return "admit:" + task.spec.name + ":0:" +
             std::to_string(cluster::kNoCell) + ":" + std::to_string(best) +
             ";";
    };

    Transcripts out;
    util::Rng rng(99);
    std::vector<std::pair<std::string, std::size_t>> active;
    for (std::size_t step = 0; step < 80; ++step) {
      if (step == 20 || step == 55) {
        accepting[2] = step == 55;
        dispatcher.set_accepting(2, accepting[2]);
      }
      if (rng.bernoulli(0.2) && !active.empty()) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(active.size()) - 1));
        const auto [name, cell] = active[pick];
        out.dispatcher += "release:" + name + ":" +
                          std::to_string(dispatcher.release(name)) + ";";
        out.reference += "release:" + name + ":" + std::to_string(cell) +
                         ";";
        EXPECT_TRUE(twins[cell].release(name));
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        core::DotTask task = world.tasks[static_cast<std::size_t>(
            rng.uniform_int(
                0, static_cast<std::int64_t>(world.tasks.size()) - 1))];
        task.spec.name = "t" + std::to_string(step);
        const cluster::AdmissionOutcome outcome =
            dispatcher.admit(world.catalog, task);
        out.dispatcher += "admit:" + task.spec.name + ":" +
                          std::to_string(outcome.admitted) + ":" +
                          std::to_string(outcome.cell) + ":" +
                          std::to_string(outcome.preferred_cell) + ";";
        if (outcome.admitted) {
          out.dispatcher += serialize_task_plan(outcome.plan);
          active.emplace_back(task.spec.name, outcome.cell);
          out.cells_used.insert(outcome.cell);
        } else {
          ++out.rejections;
        }
        out.reference += reference_admit(task);
      }
      for (std::size_t i = 0; i < twins.size(); ++i) {
        out.dispatcher += serialize_state(dispatcher.cell(i).controller());
        out.reference += serialize_state(twins[i]);
      }
      out.dispatcher += "|";
      out.reference += "|";
    }
    return out;
  }
};

TEST_F(CostProbeHandOff, MatchesReferenceLoopSerial) {
  util::set_thread_count(1);
  const Transcripts run = churn(/*parallel_probe=*/false);
  EXPECT_EQ(run.dispatcher, run.reference);
  // Not vacuous: the churn fills cells until admissions fail (so the
  // spillover walk runs) and spreads admissions over several cells.
  EXPECT_GT(run.rejections, 0u);
  EXPECT_GE(run.cells_used.size(), 2u);
}

TEST_F(CostProbeHandOff, MatchesReferenceLoopParallel) {
  util::set_thread_count(4);
  const Transcripts run = churn(/*parallel_probe=*/true);
  EXPECT_EQ(run.dispatcher, run.reference);
  util::set_thread_count(1);
  EXPECT_EQ(churn(/*parallel_probe=*/true).dispatcher, run.dispatcher);
}

// commit() takes a plan only while the state it was solved against holds:
// a current probe commits exactly as admit_incremental would, while a
// probe that a release has made stale, or another controller's plan,
// throws and commits nothing.
TEST_F(CostProbeHandOff, CommitRefusesStalePlans) {
  const core::DotInstance world = core::make_small_scenario(5);
  core::OffloadnnController controller(world.resources, world.radio);
  core::OffloadnnController twin(world.resources, world.radio);
  for (const std::size_t t : {0u, 1u}) {
    core::DotTask task = world.tasks[t];
    task.spec.name = "held-" + std::to_string(t);
    const core::DeploymentPlan probe =
        controller.probe_incremental(world.catalog, {task});
    controller.commit(probe, world.catalog);
    EXPECT_EQ(serialize_plan(probe),
              serialize_plan(twin.admit_incremental(world.catalog, {task})));
    EXPECT_EQ(serialize_state(controller), serialize_state(twin));
  }

  core::DotTask arrival = world.tasks[2];
  arrival.spec.name = "arrival";
  const core::DeploymentPlan stale =
      controller.probe_incremental(world.catalog, {arrival});
  ASSERT_TRUE(controller.release("held-0"));
  const std::string before = serialize_state(controller);
  EXPECT_THROW(controller.commit(stale, world.catalog), std::logic_error);
  EXPECT_EQ(serialize_state(controller), before);

  const core::DeploymentPlan foreign =
      twin.probe_incremental(world.catalog, {arrival});
  EXPECT_THROW(controller.commit(foreign, world.catalog), std::logic_error);
  EXPECT_THROW(controller.commit(core::DeploymentPlan{}, world.catalog),
               std::logic_error);
  EXPECT_EQ(serialize_state(controller), before);

  // A radio swap is a state change too.
  const core::DeploymentPlan before_swap =
      controller.probe_incremental(world.catalog, {arrival});
  controller.set_radio(edge::RadioModel::lte());
  EXPECT_THROW(controller.commit(before_swap, world.catalog),
               std::logic_error);
}

}  // namespace
}  // namespace odn::testing
