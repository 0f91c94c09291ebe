// probe_incremental purity regression suite: probes are dry runs. Any
// number of repeated probes must return byte-identical plans and leave
// zero observable side effects on the controller — with the caches on
// (where repeats answer from the plan cache), with them off (every repeat
// a full re-solve), and interleaved with real admissions. This is the
// property that makes the dispatcher's cross-cell cache sharing sound.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/controller.h"
#include "core/plan_cache.h"
#include "solver_equivalence.h"

namespace odn::core {
namespace {

OffloadnnController make_controller(const DotInstance& world,
                                    bool caches_on) {
  OffloadnnController::Options options;
  options.alpha = world.alpha;
  options.cache.plan_cache = caches_on;
  return OffloadnnController(world.resources, world.radio, options);
}

class ProbePurity : public ::testing::TestWithParam<bool> {};

TEST_P(ProbePurity, RepeatedProbesAreBitIdentical) {
  const DotInstance world = testing::random_instance(31);
  OffloadnnController controller = make_controller(world, GetParam());

  std::vector<DotTask> requests{world.tasks[0]};
  requests[0].spec.name = "probe-me";
  const std::string first = odn::testing::serialize_plan(
      controller.probe_incremental(world.catalog, requests));
  for (int repeat = 0; repeat < 8; ++repeat)
    EXPECT_EQ(odn::testing::serialize_plan(
                  controller.probe_incremental(world.catalog, requests)),
              first)
        << "repeat " << repeat;
}

TEST_P(ProbePurity, ProbesLeaveNoSideEffects) {
  const DotInstance world = testing::random_instance(33);
  OffloadnnController controller = make_controller(world, GetParam());

  // Commit some real state first so the probe runs against a non-trivial
  // discounted instance.
  std::vector<DotTask> seed_requests{world.tasks[0]};
  seed_requests[0].spec.name = "committed";
  (void)controller.admit_incremental(world.catalog, seed_requests);

  const std::string state_before =
      odn::testing::serialize_state(controller);
  std::vector<DotTask> requests{world.tasks[world.tasks.size() - 1]};
  requests[0].spec.name = "dry-run";
  for (int repeat = 0; repeat < 5; ++repeat)
    (void)controller.probe_incremental(world.catalog, requests);
  EXPECT_EQ(odn::testing::serialize_state(controller), state_before)
      << "probe mutated committed state";
  for (const std::string& name : controller.active_tasks())
    EXPECT_NE(name, "dry-run") << "probe committed its task";
}

TEST_P(ProbePurity, ProbeEqualsSubsequentAdmitPlan) {
  const DotInstance world = testing::random_instance(37);
  OffloadnnController controller = make_controller(world, GetParam());

  std::vector<DotTask> requests{world.tasks[0]};
  requests[0].spec.name = "then-admit";
  const std::string probed = odn::testing::serialize_plan(
      controller.probe_incremental(world.catalog, requests));
  const std::string admitted = odn::testing::serialize_plan(
      controller.admit_incremental(world.catalog, requests));
  // probe == admit on unchanged state: the dispatcher's migrate() safety
  // argument depends on exactly this.
  EXPECT_EQ(probed, admitted);
}

TEST_P(ProbePurity, ProbesInterleavedWithChurnStayPure) {
  const DotInstance world = testing::random_instance(41);
  OffloadnnController controller = make_controller(world, GetParam());

  std::vector<DotTask> probe_requests{world.tasks[0]};
  probe_requests[0].spec.name = "steady-probe";
  std::string last;
  for (std::size_t step = 0; step < 10; ++step) {
    // Between probes, real admissions/releases move the committed state;
    // each new state may legitimately change the probe's answer, but
    // within one state, repeats must replay exactly.
    const std::string now = odn::testing::serialize_plan(
        controller.probe_incremental(world.catalog, probe_requests));
    EXPECT_EQ(odn::testing::serialize_plan(controller.probe_incremental(
                  world.catalog, probe_requests)),
              now);
    std::vector<DotTask> churn{world.tasks[step % world.tasks.size()]};
    churn[0].spec.name = "churn-" + std::to_string(step);
    (void)controller.admit_incremental(world.catalog, churn);
    last = now;
  }
  (void)last;
}

INSTANTIATE_TEST_SUITE_P(CachesOnAndOff, ProbePurity, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CachesOn" : "CachesOff";
                         });

// With caches on, repeated probes must actually take the warm path (the
// purity above would be vacuous if the cache never hit).
TEST(ProbePurityCaching, RepeatsHitThePlanCache) {
  const DotInstance world = testing::random_instance(43);
  OffloadnnController controller = make_controller(world, true);
  ASSERT_NE(controller.plan_cache(), nullptr);

  std::vector<DotTask> requests{world.tasks[0]};
  requests[0].spec.name = "hot";
  (void)controller.probe_incremental(world.catalog, requests);
  const PlanCacheStats cold = controller.plan_cache()->stats();
  for (int repeat = 0; repeat < 3; ++repeat)
    (void)controller.probe_incremental(world.catalog, requests);
  const PlanCacheStats warm = controller.plan_cache()->stats();
  EXPECT_EQ(warm.hits - cold.hits, 3u);
  EXPECT_EQ(warm.misses, cold.misses);
}

}  // namespace
}  // namespace odn::core
