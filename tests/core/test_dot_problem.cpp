#include "core/dot_problem.h"

#include <gtest/gtest.h>

#include <limits>

#include "test_instances.h"

namespace odn::core {
namespace {

TEST(DotInstance, FinalizeCachesOptionQuantities) {
  const DotInstance instance = testing::two_task_instance();
  const PathOption& option = instance.tasks[0].options[0];
  EXPECT_NEAR(option.inference_time_s, 30e-3, 1e-12);  // 10 + 15 + 5 ms
  EXPECT_DOUBLE_EQ(option.accuracy, 0.85);
  EXPECT_DOUBLE_EQ(option.input_bits, 20e3);
}

TEST(DotInstance, QualityFactorScalesAccuracy) {
  DotInstance instance = testing::two_task_instance();
  instance.tasks[0].spec.qualities.push_back({10e3, 0.9});
  instance.tasks[0].options[1].quality_index = 1;
  instance.finalize();
  EXPECT_NEAR(instance.tasks[0].options[1].accuracy, 0.81 * 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(instance.tasks[0].options[1].input_bits, 10e3);
}

TEST(DotInstance, PriorityOrderDescending) {
  const DotInstance instance = testing::two_task_instance();
  const auto& order = instance.priority_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0u);  // p = 0.9 first
  EXPECT_EQ(order[1], 1u);
}

TEST(DotInstance, PriorityOrderStableForTies) {
  DotInstance instance = testing::two_task_instance();
  instance.tasks[0].spec.priority = 0.4;  // tie with task-lo
  instance.finalize();
  const auto& order = instance.priority_order();
  EXPECT_EQ(order[0], 0u);  // stable: original order preserved
}

TEST(DotInstance, PriorityOrderBeforeFinalizeThrows) {
  DotInstance instance;
  EXPECT_THROW(instance.priority_order(), std::logic_error);
}

TEST(DotInstance, FinalizeValidatesAlpha) {
  DotInstance instance = testing::two_task_instance();
  instance.alpha = 1.5;
  EXPECT_THROW(instance.finalize(), std::invalid_argument);
}

// NaN fails every comparison, so a range check must be written to fail
// for it; otherwise the solver returns a NaN objective.
TEST(DotInstance, FinalizeRejectsNonFiniteAlpha) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    DotInstance instance = testing::two_task_instance();
    instance.alpha = bad;
    EXPECT_THROW(instance.finalize(), std::invalid_argument);
  }
}

TEST(DotInstance, FinalizeRejectsNonFiniteTaskAndResourceFields) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  {
    DotInstance instance = testing::two_task_instance();
    instance.tasks[1].spec.priority = nan;
    EXPECT_THROW(instance.finalize(), std::invalid_argument);
  }
  {
    DotInstance instance = testing::two_task_instance();
    instance.tasks[0].spec.snr_db = nan;
    EXPECT_THROW(instance.finalize(), std::invalid_argument);
  }
  {
    DotInstance instance = testing::two_task_instance();
    instance.resources.compute_capacity_s = nan;
    EXPECT_THROW(instance.finalize(), std::invalid_argument);
  }
}

TEST(DotInstance, FinalizeValidatesQualityIndex) {
  DotInstance instance = testing::two_task_instance();
  instance.tasks[0].options[0].quality_index = 5;
  EXPECT_THROW(instance.finalize(), std::invalid_argument);
}

TEST(DotInstance, FinalizeValidatesPathBlocks) {
  DotInstance instance = testing::two_task_instance();
  instance.tasks[0].options[0].path.blocks.push_back(999);
  EXPECT_THROW(instance.finalize(), std::out_of_range);
}

TEST(DotInstance, EndToEndLatency) {
  const DotInstance instance = testing::two_task_instance();
  const DotTask& task = instance.tasks[0];
  const PathOption& option = task.options[0];
  // 20 kb over 2 RBs x 100 kb/s = 0.1 s + 30 ms compute.
  EXPECT_NEAR(instance.end_to_end_latency_s(task, option, 2), 0.13, 1e-9);
}

TEST(DotInstance, DuplicateTaskNamesRejected) {
  DotInstance instance = testing::two_task_instance();
  instance.tasks[1].spec.name = instance.tasks[0].spec.name;
  EXPECT_THROW(instance.finalize(), std::invalid_argument);
}

}  // namespace
}  // namespace odn::core
