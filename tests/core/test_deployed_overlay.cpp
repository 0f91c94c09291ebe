// Differential suite for the deployed-block overlay and the controller's
// flat ledger (DESIGN.md §8):
//  - overlay: an instance whose `deployed` list marks blocks free solves
//    to the same bytes as an explicitly rebuilt catalog in which those
//    blocks carry µ = ct = 0 — for the heuristic (beam 1 and beam > 1),
//    the exhaustive solver and SEM-O-RAN — and DotEvaluator prices both
//    identically;
//  - finalize() rejects a deployed index outside the catalog;
//  - ledger: over seeded commit/release sequences, ledger() and
//    deployed_blocks() bit-equal a re-sum in the test with the hash-set
//    algorithm the controller's flat arrays replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "baseline/semoran.h"
#include "core/controller.h"
#include "core/offloadnn_solver.h"
#include "core/optimal_solver.h"
#include "core/scenarios.h"
#include "core/solution.h"
#include "fuzz_instances.h"
#include "invariant_check.h"
#include "solver_equivalence.h"
#include "util/rng.h"

namespace odn::core {
namespace {

using odn::testing::serialize_cost;
using odn::testing::serialize_solution;

constexpr std::uint64_t kSeeds = 60;

// The world of `seed` with a random deployed overlay.
DotInstance overlay_instance(std::uint64_t seed) {
  DotInstance instance = testing::random_instance(seed);
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  instance.deployed.clear();
  for (std::size_t b = 0; b < instance.catalog.block_count(); ++b)
    if (rng.bernoulli(0.4))
      instance.deployed.push_back(static_cast<edge::BlockIndex>(b));
  instance.finalize();
  return instance;
}

// The same instance with no overlay: its catalog is rebuilt block by block,
// the deployed blocks re-added with µ = ct = 0.
DotInstance rebuilt_instance(const DotInstance& overlay) {
  DotInstance rebuilt = overlay;
  rebuilt.deployed.clear();
  rebuilt.catalog = edge::DnnCatalog{};
  for (std::size_t b = 0; b < overlay.catalog.block_count(); ++b) {
    edge::CatalogBlock block =
        overlay.catalog.block(static_cast<edge::BlockIndex>(b));
    if (std::find(overlay.deployed.begin(), overlay.deployed.end(), b) !=
        overlay.deployed.end()) {
      block.memory_bytes = 0.0;
      block.training_cost_s = 0.0;
    }
    rebuilt.catalog.add_block(std::move(block));
  }
  rebuilt.finalize();
  return rebuilt;
}

template <typename Solve>
void expect_same_solutions(const Solve& solve, const char* solver) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << solver << ", seed " << seed);
    const DotInstance overlay = overlay_instance(seed);
    const DotInstance rebuilt = rebuilt_instance(overlay);
    ASSERT_LE(overlay.task_count(), 5u);
    const DotSolution a = solve(overlay);
    const DotSolution b = solve(rebuilt);
    ASSERT_EQ(serialize_solution(a), serialize_solution(b));
    for (const MemoryAccounting accounting :
         {MemoryAccounting::kSharedOnce, MemoryAccounting::kPerTask}) {
      EXPECT_EQ(serialize_cost(DotEvaluator(overlay, accounting)
                                   .evaluate(a.decisions)),
                serialize_cost(DotEvaluator(rebuilt, accounting)
                                   .evaluate(b.decisions)));
    }
    EXPECT_EQ(DotEvaluator(overlay).violations(a.decisions),
              DotEvaluator(rebuilt).violations(b.decisions));
    odn::testing::check_dot_invariants(overlay, a.decisions, "overlay");
  }
}

TEST(DeployedOverlay, FirstBranchMatchesRebuiltCatalog) {
  expect_same_solutions(
      [](const DotInstance& instance) {
        return OffloadnnSolver{}.solve(instance);
      },
      "offloadnn beam 1");
}

TEST(DeployedOverlay, BeamMatchesRebuiltCatalog) {
  OffloadnnOptions options;
  options.beam_width = 4;
  expect_same_solutions(
      [&](const DotInstance& instance) {
        return OffloadnnSolver{options}.solve(instance);
      },
      "offloadnn beam 4");
}

TEST(DeployedOverlay, OptimalMatchesRebuiltCatalog) {
  expect_same_solutions(
      [](const DotInstance& instance) {
        return OptimalSolver{}.solve(instance);
      },
      "optimal");
}

TEST(DeployedOverlay, SemOranMatchesRebuiltCatalog) {
  expect_same_solutions(
      [](const DotInstance& instance) {
        return baseline::SemOranSolver{}.solve(instance);
      },
      "semoran");
}

TEST(DeployedOverlay, PathMemorySkipsDeployedBlocksOnce) {
  DotInstance instance = testing::random_instance(3);
  const edge::DnnPath path{"dup", {0, 1, 0, 1}, 0.9};
  instance.deployed = {1};
  instance.finalize();
  EXPECT_EQ(instance.path_memory_bytes(path),
            instance.catalog.block(0).memory_bytes);
  EXPECT_EQ(instance.block_memory_bytes(1), 0.0);
  EXPECT_EQ(instance.block_training_cost_s(1), 0.0);
  EXPECT_EQ(instance.block_memory_bytes(0),
            instance.catalog.block(0).memory_bytes);
}

TEST(DeployedOverlay, FinalizeRejectsOutOfRangeIndex) {
  DotInstance instance = testing::random_instance(5);
  const auto count = static_cast<edge::BlockIndex>(
      instance.catalog.block_count());
  instance.deployed = {0, count};
  try {
    instance.finalize();
    FAIL() << "finalize accepted deployed block " << count;
  } catch (const std::out_of_range& error) {
    EXPECT_NE(std::string(error.what()).find(std::to_string(count)),
              std::string::npos)
        << error.what();
  }
  instance.deployed = {count - 1};
  EXPECT_NO_THROW(instance.finalize());
}

// What the controller committed for one admitted task, as the test sees it.
struct Committed {
  std::string name;
  double compute_s = 0.0;
  double shared_rbs = 0.0;
  std::vector<edge::BlockIndex> blocks;
};

// The ledger the controller's flat arrays must reproduce: active tasks in
// order, each block's memory counted at its first appearance, collected in
// a hash set and sorted afterwards.
struct ReferenceLedger {
  double compute = 0.0;
  double memory = 0.0;
  std::size_t rbs = 0;
  std::vector<edge::BlockIndex> deployed;
};

ReferenceLedger reference_resum(const std::vector<Committed>& active,
                                const edge::DnnCatalog& catalog) {
  ReferenceLedger ref;
  double shared_rbs = 0.0;
  std::unordered_set<edge::BlockIndex> blocks;
  for (const Committed& task : active) {
    ref.compute += task.compute_s;
    shared_rbs += task.shared_rbs;
    for (const edge::BlockIndex b : task.blocks)
      if (blocks.insert(b).second) ref.memory += catalog.block(b).memory_bytes;
  }
  ref.deployed.assign(blocks.begin(), blocks.end());
  std::sort(ref.deployed.begin(), ref.deployed.end());
  ref.rbs = static_cast<std::size_t>(std::ceil(shared_rbs - 1e-9));
  return ref;
}

void expect_ledger_matches(const OffloadnnController& controller,
                           const std::vector<Committed>& active,
                           const edge::DnnCatalog& catalog) {
  const ReferenceLedger ref = reference_resum(active, catalog);
  // The ledger adds its sums to 0.0, which is exact.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(controller.ledger().compute_used_s()),
            std::bit_cast<std::uint64_t>(0.0 + ref.compute));
  EXPECT_EQ(
      std::bit_cast<std::uint64_t>(controller.ledger().memory_used_bytes()),
      std::bit_cast<std::uint64_t>(0.0 + ref.memory));
  EXPECT_EQ(controller.ledger().rbs_used(), ref.rbs);
  EXPECT_EQ(controller.deployed_blocks(), ref.deployed);
}

TEST(FlatLedger, MatchesHashSetResumOverSeededChurn) {
  constexpr std::size_t kSteps = 250;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ScenarioOptions scenario;
    scenario.seed = seed;
    const DotInstance world = make_large_scenario(
        seed == 1 ? RequestRate::kMedium : RequestRate::kLow, scenario);
    OffloadnnController::Options options;
    options.alpha = world.alpha;
    OffloadnnController controller(world.resources, world.radio, options);
    util::Rng rng(seed + 1000);
    std::vector<Committed> active;
    std::size_t peak_active = 0;

    for (std::size_t step = 0; step < kSteps; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      if (rng.bernoulli(0.35) && !active.empty()) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(active.size()) - 1));
        ASSERT_TRUE(controller.release(active[pick].name));
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        std::vector<DotTask> requests;
        const auto count = static_cast<std::size_t>(rng.uniform_int(1, 3));
        for (std::size_t r = 0; r < count; ++r) {
          DotTask task = world.tasks[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(world.tasks.size()) - 1))];
          task.spec.name = "s" + std::to_string(step) + "-" + std::to_string(r);
          task.spec.request_rate *= rng.uniform(0.2, 1.0);
          requests.push_back(std::move(task));
        }
        const DeploymentPlan plan =
            controller.admit_incremental(world.catalog, std::move(requests));
        for (const TaskPlan& task : plan.tasks)
          if (task.admitted)
            active.push_back(Committed{
                task.task_name, task.admitted_rate * task.inference_time_s,
                task.admission_ratio * static_cast<double>(task.slice_rbs),
                task.blocks});
      }
      expect_ledger_matches(controller, active, world.catalog);
      if (::testing::Test::HasFailure()) return;
      peak_active = std::max(peak_active, active.size());
    }
    // The sequence must build up shared deployments, not churn one task.
    EXPECT_GE(peak_active, 4u);
    controller.reset();
    expect_ledger_matches(controller, {}, world.catalog);
  }
}

}  // namespace
}  // namespace odn::core
