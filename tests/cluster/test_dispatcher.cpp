// ClusterDispatcher: placement policies, spillover, ownership, the
// migration primitive and the serial-vs-parallel cost_probe contract.
#include <gtest/gtest.h>

#include "cluster/dispatcher.h"
#include "core/scenarios.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace odn::cluster {
namespace {

class DispatcherTest : public ::testing::Test {
 protected:
  DispatcherTest() : instance_(core::make_small_scenario(5)) {}

  // N equal-capacity cells cloned from the small scenario.
  std::vector<CellSpec> equal_cells(std::size_t count) const {
    std::vector<CellSpec> cells;
    for (std::size_t i = 0; i < count; ++i)
      cells.push_back(CellSpec{"cell-" + std::to_string(i),
                               instance_.resources});
    return cells;
  }

  // A cell too small to admit anything (1 byte of memory).
  CellSpec starved_cell(const std::string& name) const {
    edge::EdgeResources starved = instance_.resources;
    starved.memory_capacity_bytes = 1.0;
    return CellSpec{name, starved};
  }

  core::DotTask named_task(std::size_t index, const std::string& name) const {
    core::DotTask task = instance_.tasks[index];
    task.spec.name = name;
    return task;
  }

  core::DotInstance instance_;
};

TEST_F(DispatcherTest, FirstFitPrefersLowestIndex) {
  ClusterDispatcher dispatcher(equal_cells(3), instance_.radio, {},
                               {.policy = PlacementPolicy::kFirstFit});
  const auto outcome =
      dispatcher.admit(instance_.catalog, named_task(0, "t0"));
  ASSERT_TRUE(outcome.admitted);
  EXPECT_EQ(outcome.preferred_cell, 0u);
  EXPECT_EQ(outcome.cell, 0u);
  EXPECT_FALSE(outcome.spilled);
}

TEST_F(DispatcherTest, FirstFitSpillsOverStarvedCell) {
  std::vector<CellSpec> cells{starved_cell("starved"),
                              CellSpec{"healthy", instance_.resources}};
  ClusterDispatcher dispatcher(std::move(cells), instance_.radio, {},
                               {.policy = PlacementPolicy::kFirstFit});
  const auto outcome =
      dispatcher.admit(instance_.catalog, named_task(0, "t0"));
  ASSERT_TRUE(outcome.admitted);
  EXPECT_EQ(outcome.preferred_cell, 0u);
  EXPECT_EQ(outcome.cell, 1u);
  EXPECT_TRUE(outcome.spilled);
  EXPECT_EQ(dispatcher.owner_of("t0"), 1u);
}

TEST_F(DispatcherTest, SpilloverDisabledRejectsAtPreferredCell) {
  std::vector<CellSpec> cells{starved_cell("starved"),
                              CellSpec{"healthy", instance_.resources}};
  ClusterDispatcher dispatcher(
      std::move(cells), instance_.radio, {},
      {.policy = PlacementPolicy::kFirstFit, .spillover = false});
  const auto outcome =
      dispatcher.admit(instance_.catalog, named_task(0, "t0"));
  EXPECT_FALSE(outcome.admitted);
  EXPECT_EQ(outcome.cell, kNoCell);
  EXPECT_EQ(dispatcher.owner_of("t0"), kNoCell);
  EXPECT_EQ(dispatcher.total_active(), 0u);
}

TEST_F(DispatcherTest, LeastLoadedBalancesAcrossCells) {
  ClusterDispatcher dispatcher(equal_cells(2), instance_.radio, {},
                               {.policy = PlacementPolicy::kLeastLoaded});
  // Equal headroom: tie goes to cell 0.
  const auto first =
      dispatcher.admit(instance_.catalog, named_task(0, "t0"));
  ASSERT_TRUE(first.admitted);
  EXPECT_EQ(first.cell, 0u);
  // Cell 0 is now the fuller one; the next job must land on cell 1.
  const auto second =
      dispatcher.admit(instance_.catalog, named_task(1, "t1"));
  ASSERT_TRUE(second.admitted);
  EXPECT_EQ(second.cell, 1u);
}

TEST_F(DispatcherTest, CostProbeSerialAndParallelAgree) {
  DispatcherOptions serial{.policy = PlacementPolicy::kCostProbe,
                           .parallel_probe = false};
  DispatcherOptions parallel{.policy = PlacementPolicy::kCostProbe,
                             .parallel_probe = true};
  ClusterDispatcher a(equal_cells(4), instance_.radio, {}, serial);
  ClusterDispatcher b(equal_cells(4), instance_.radio, {}, parallel);

  for (std::size_t t = 0; t < instance_.tasks.size(); ++t) {
    const core::DotTask task =
        named_task(t, "t" + std::to_string(t));
    EXPECT_EQ(a.choose_cell(instance_.catalog, task),
              b.choose_cell(instance_.catalog, task));
    const auto oa = a.admit(instance_.catalog, task);
    const auto ob = b.admit(instance_.catalog, task);
    EXPECT_EQ(oa.admitted, ob.admitted);
    EXPECT_EQ(oa.cell, ob.cell);
  }
}

TEST_F(DispatcherTest, CostProbeDoesNotMutateCells) {
  ClusterDispatcher dispatcher(equal_cells(3), instance_.radio, {},
                               {.policy = PlacementPolicy::kCostProbe});
  dispatcher.choose_cell(instance_.catalog, named_task(0, "t0"));
  for (std::size_t i = 0; i < dispatcher.cell_count(); ++i) {
    EXPECT_TRUE(dispatcher.cell(i).controller().active_tasks().empty());
    EXPECT_EQ(dispatcher.cell(i).controller().ledger().memory_used_bytes(),
              0.0);
  }
}

// Under cost_probe the preferred cell holds the lowest-objective admitting
// probe, so when it rejects every probe rejected: the admission is one
// placement attempt that commits nothing on any cell.
TEST_F(DispatcherTest, CostProbeRejectionCommitsNothing) {
  std::vector<CellSpec> cells{starved_cell("s0"), starved_cell("s1"),
                              starved_cell("s2")};
  ClusterDispatcher dispatcher(std::move(cells), instance_.radio, {},
                               {.policy = PlacementPolicy::kCostProbe});
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::Counter& commits =
      registry.counter("odn_controller_commits_total");
  const obs::Counter& attempts =
      registry.counter("odn_cluster_placement_attempts_total");
  const std::uint64_t commits_before = commits.value();
  const std::uint64_t attempts_before = attempts.value();

  const auto outcome =
      dispatcher.admit(instance_.catalog, named_task(0, "t0"));
  EXPECT_FALSE(outcome.admitted);
  EXPECT_EQ(outcome.preferred_cell, 0u);
  EXPECT_EQ(outcome.cell, kNoCell);
  EXPECT_EQ(commits.value(), commits_before);
  EXPECT_EQ(attempts.value(), attempts_before + 1);
  EXPECT_EQ(dispatcher.total_active(), 0u);
}

TEST_F(DispatcherTest, ReleaseReturnsOwningCellAndForgets) {
  ClusterDispatcher dispatcher(equal_cells(2), instance_.radio, {}, {});
  const auto outcome =
      dispatcher.admit(instance_.catalog, named_task(0, "t0"));
  ASSERT_TRUE(outcome.admitted);

  EXPECT_EQ(dispatcher.release("t0"), outcome.cell);
  EXPECT_EQ(dispatcher.owner_of("t0"), kNoCell);
  EXPECT_EQ(dispatcher.release("t0"), kNoCell);  // double release
  EXPECT_EQ(dispatcher.release("never-admitted"), kNoCell);
  EXPECT_EQ(dispatcher.total_active(), 0u);
}

TEST_F(DispatcherTest, DuplicateAdmissionThrows) {
  ClusterDispatcher dispatcher(equal_cells(2), instance_.radio, {}, {});
  ASSERT_TRUE(dispatcher.admit(instance_.catalog, named_task(0, "t0"))
                  .admitted);
  EXPECT_THROW(dispatcher.admit(instance_.catalog, named_task(1, "t0")),
               std::invalid_argument);
}

TEST_F(DispatcherTest, MigrateMovesCommitmentBetweenLedgers) {
  ClusterDispatcher dispatcher(equal_cells(2), instance_.radio, {},
                               {.policy = PlacementPolicy::kFirstFit});
  const core::DotTask task = named_task(0, "t0");
  ASSERT_TRUE(dispatcher.admit(instance_.catalog, task).admitted);
  ASSERT_EQ(dispatcher.owner_of("t0"), 0u);
  const double memory_at_source =
      dispatcher.cell(0).controller().ledger().memory_used_bytes();
  EXPECT_GT(memory_at_source, 0.0);

  core::TaskPlan plan;
  ASSERT_TRUE(dispatcher.migrate(instance_.catalog, task, "t0", 1, &plan));
  EXPECT_TRUE(plan.admitted);
  EXPECT_EQ(dispatcher.owner_of("t0"), 1u);
  EXPECT_EQ(dispatcher.cell(0).controller().ledger().memory_used_bytes(),
            0.0);
  EXPECT_EQ(dispatcher.cell(0).controller().ledger().rbs_used(), 0u);
  EXPECT_GT(dispatcher.cell(1).controller().ledger().memory_used_bytes(),
            0.0);
  // The equal-capacity sibling admits the identical commitment.
  EXPECT_EQ(dispatcher.cell(1).controller().ledger().memory_used_bytes(),
            memory_at_source);
  EXPECT_EQ(dispatcher.total_active(), 1u);
}

TEST_F(DispatcherTest, MigrateRefusesWithoutViableTarget) {
  std::vector<CellSpec> cells{CellSpec{"healthy", instance_.resources},
                              starved_cell("starved")};
  ClusterDispatcher dispatcher(std::move(cells), instance_.radio, {},
                               {.policy = PlacementPolicy::kFirstFit});
  const core::DotTask task = named_task(0, "t0");
  ASSERT_TRUE(dispatcher.admit(instance_.catalog, task).admitted);

  // Starved target: the probe rejects, nothing moves.
  EXPECT_FALSE(dispatcher.migrate(instance_.catalog, task, "t0", 1));
  EXPECT_EQ(dispatcher.owner_of("t0"), 0u);
  EXPECT_GT(dispatcher.cell(0).controller().ledger().memory_used_bytes(),
            0.0);

  // Self-migration and unknown tasks are no-ops.
  EXPECT_FALSE(dispatcher.migrate(instance_.catalog, task, "t0", 0));
  const core::DotTask ghost = named_task(1, "ghost");
  EXPECT_FALSE(dispatcher.migrate(instance_.catalog, ghost, "ghost", 1));
}

}  // namespace
}  // namespace odn::cluster
