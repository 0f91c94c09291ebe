// probe_incremental purity regression suite: probes are dry runs. Any
// number of repeated probes must return byte-identical plans and leave
// zero observable side effects on the controller, also interleaved with
// real admissions. This is the property that lets the dispatcher probe
// sibling cells concurrently and commit the winning cell's probe.
//
// Every case runs twice. The parameter says how real admissions happen:
// true commits the plan a probe of the request just solved (the cost_probe
// hand-off, which took the place of the plan cache, hence the instance
// names CachesOn/CachesOff); false lets admit_incremental solve again.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "solver_equivalence.h"

namespace odn::core {
namespace {

OffloadnnController make_controller(const DotInstance& world) {
  OffloadnnController::Options options;
  options.alpha = world.alpha;
  return OffloadnnController(world.resources, world.radio, options);
}

class ProbePurity : public ::testing::TestWithParam<bool> {
 protected:
  // A real admission, made the way the parameter says.
  DeploymentPlan admit(OffloadnnController& controller,
                       const DotInstance& world,
                       std::vector<DotTask> requests) const {
    if (!GetParam())
      return controller.admit_incremental(world.catalog, std::move(requests));
    DeploymentPlan plan =
        controller.probe_incremental(world.catalog, std::move(requests));
    controller.commit(plan, world.catalog);
    return plan;
  }
};

TEST_P(ProbePurity, RepeatedProbesAreBitIdentical) {
  const DotInstance world = testing::random_instance(31);
  OffloadnnController controller = make_controller(world);

  std::vector<DotTask> requests{world.tasks[0]};
  requests[0].spec.name = "probe-me";
  const DeploymentPlan first_plan =
      controller.probe_incremental(world.catalog, requests);
  const std::string first = odn::testing::serialize_plan(first_plan);
  for (int repeat = 0; repeat < 8; ++repeat)
    EXPECT_EQ(odn::testing::serialize_plan(
                  controller.probe_incremental(world.catalog, requests)),
              first)
        << "repeat " << repeat;
  // The repeats moved no state: the first probe is still current enough
  // to commit, and a fresh admission solves the same bytes.
  if (GetParam())
    EXPECT_NO_THROW(controller.commit(first_plan, world.catalog));
  else
    EXPECT_EQ(odn::testing::serialize_plan(
                  controller.admit_incremental(world.catalog, requests)),
              first);
}

TEST_P(ProbePurity, ProbesLeaveNoSideEffects) {
  const DotInstance world = testing::random_instance(33);
  OffloadnnController controller = make_controller(world);

  // Commit some real state first so the probe runs against a non-trivial
  // discounted instance.
  std::vector<DotTask> seed_requests{world.tasks[0]};
  seed_requests[0].spec.name = "committed";
  (void)admit(controller, world, seed_requests);

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
  OffloadnnController controller = make_controller(world);
  OffloadnnController twin = make_controller(world);

  std::vector<DotTask> requests{world.tasks[0]};
  requests[0].spec.name = "then-admit";
  const std::string probed = odn::testing::serialize_plan(
      controller.probe_incremental(world.catalog, requests));
  const std::string admitted =
      odn::testing::serialize_plan(admit(controller, world, requests));
  // probe == admit on unchanged state: the dispatcher's migrate() safety
  // argument depends on exactly this.
  EXPECT_EQ(probed, admitted);
  // Either way of admitting leaves the state admit_incremental leaves.
  (void)twin.admit_incremental(world.catalog, requests);
  EXPECT_EQ(odn::testing::serialize_state(controller),
            odn::testing::serialize_state(twin));
}

TEST_P(ProbePurity, ProbesInterleavedWithChurnStayPure) {
  const DotInstance world = testing::random_instance(41);
  OffloadnnController controller = make_controller(world);

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
    (void)admit(controller, world, churn);
    last = now;
  }
  (void)last;
}

INSTANTIATE_TEST_SUITE_P(CachesOnAndOff, ProbePurity, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CachesOn" : "CachesOff";
                         });

}  // namespace
}  // namespace odn::core
