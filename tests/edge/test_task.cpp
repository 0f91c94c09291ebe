#include "edge/task.h"

#include <gtest/gtest.h>

#include <limits>

namespace odn::edge {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TaskSpec valid_task() {
  TaskSpec task;
  task.name = "detect-cars";
  task.priority = 0.7;
  task.request_rate = 4.0;
  task.min_accuracy = 0.5;
  task.max_latency_s = 0.3;
  task.qualities = {{350e3, 1.0}};
  return task;
}

TEST(TaskSpec, ValidTaskPasses) {
  EXPECT_NO_THROW(valid_task().validate());
}

TEST(TaskSpec, EmptyNameThrows) {
  TaskSpec task = valid_task();
  task.name.clear();
  EXPECT_THROW(task.validate(), std::invalid_argument);
}

TEST(TaskSpec, PriorityOutOfRangeThrows) {
  TaskSpec task = valid_task();
  task.priority = 1.5;
  EXPECT_THROW(task.validate(), std::invalid_argument);
  task.priority = -0.1;
  EXPECT_THROW(task.validate(), std::invalid_argument);
}

TEST(TaskSpec, NonPositiveRateThrows) {
  TaskSpec task = valid_task();
  task.request_rate = 0.0;
  EXPECT_THROW(task.validate(), std::invalid_argument);
}

TEST(TaskSpec, AccuracyOutOfRangeThrows) {
  TaskSpec task = valid_task();
  task.min_accuracy = 1.01;
  EXPECT_THROW(task.validate(), std::invalid_argument);
}

TEST(TaskSpec, NonPositiveLatencyThrows) {
  TaskSpec task = valid_task();
  task.max_latency_s = 0.0;
  EXPECT_THROW(task.validate(), std::invalid_argument);
}

TEST(TaskSpec, NoQualityLevelsThrows) {
  TaskSpec task = valid_task();
  task.qualities.clear();
  EXPECT_THROW(task.validate(), std::invalid_argument);
  EXPECT_THROW(task.full_quality(), std::logic_error);
}

TEST(TaskSpec, BadQualityLevelThrows) {
  TaskSpec task = valid_task();
  task.qualities = {{0.0, 1.0}};
  EXPECT_THROW(task.validate(), std::invalid_argument);
  task.qualities = {{350e3, 1.5}};
  EXPECT_THROW(task.validate(), std::invalid_argument);
  task.qualities = {{350e3, 0.0}};
  EXPECT_THROW(task.validate(), std::invalid_argument);
}

// A comparison with NaN is false, so a range check written as
// `x < lo || x > hi` would let NaN through; every field must also be finite.
template <typename Mutate>
void expect_non_finite_rejected(Mutate mutate) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    TaskSpec task = valid_task();
    mutate(task, bad);
    EXPECT_THROW(task.validate(), std::invalid_argument);
  }
}

TEST(TaskSpec, NonFinitePriorityThrows) {
  expect_non_finite_rejected([](TaskSpec& t, double x) { t.priority = x; });
}

TEST(TaskSpec, NonFiniteRequestRateThrows) {
  expect_non_finite_rejected(
      [](TaskSpec& t, double x) { t.request_rate = x; });
}

TEST(TaskSpec, NonFiniteAccuracyThrows) {
  expect_non_finite_rejected(
      [](TaskSpec& t, double x) { t.min_accuracy = x; });
}

TEST(TaskSpec, NonFiniteLatencyThrows) {
  expect_non_finite_rejected(
      [](TaskSpec& t, double x) { t.max_latency_s = x; });
}

TEST(TaskSpec, NonFiniteSnrThrows) {
  expect_non_finite_rejected([](TaskSpec& t, double x) { t.snr_db = x; });
  // Any finite SNR is a valid channel, negative dB included.
  TaskSpec task = valid_task();
  task.snr_db = -5.0;
  EXPECT_NO_THROW(task.validate());
}

TEST(TaskSpec, NonFiniteQualityLevelThrows) {
  expect_non_finite_rejected(
      [](TaskSpec& t, double x) { t.qualities[0].bits_per_image = x; });
  expect_non_finite_rejected(
      [](TaskSpec& t, double x) { t.qualities[0].accuracy_factor = x; });
}

TEST(TaskSpec, FullQualityIsFirst) {
  TaskSpec task = valid_task();
  task.qualities = {{350e3, 1.0}, {200e3, 0.9}};
  EXPECT_DOUBLE_EQ(task.full_quality().bits_per_image, 350e3);
}

TEST(ValidateTasks, DuplicateNamesThrow) {
  std::vector<TaskSpec> tasks{valid_task(), valid_task()};
  EXPECT_THROW(validate_tasks(tasks), std::invalid_argument);
}

TEST(ValidateTasks, DistinctNamesPass) {
  std::vector<TaskSpec> tasks{valid_task(), valid_task()};
  tasks[1].name = "detect-trains";
  EXPECT_NO_THROW(validate_tasks(tasks));
}

}  // namespace
}  // namespace odn::edge
