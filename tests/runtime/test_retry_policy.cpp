#include <gtest/gtest.h>

#include <limits>

#include "runtime/retry_policy.h"

namespace odn::runtime {
namespace {

TEST(RetryPolicy, ExponentialBackoffDelays) {
  RetryPolicy policy;
  policy.backoff_s = 2.0;
  policy.backoff_multiplier = 2.0;
  EXPECT_DOUBLE_EQ(policy.retry_delay_s(1), 2.0);
  EXPECT_DOUBLE_EQ(policy.retry_delay_s(2), 4.0);
  EXPECT_DOUBLE_EQ(policy.retry_delay_s(3), 8.0);
}

TEST(RetryPolicy, ConstantBackoffWithUnitMultiplier) {
  RetryPolicy policy;
  policy.backoff_s = 1.5;
  policy.backoff_multiplier = 1.0;
  EXPECT_DOUBLE_EQ(policy.retry_delay_s(1), 1.5);
  EXPECT_DOUBLE_EQ(policy.retry_delay_s(4), 1.5);
}

TEST(RetryPolicy, DowngradeOnlyOnFinalAttempt) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.downgrade_final_attempt = true;
  EXPECT_FALSE(policy.downgrades(1));
  EXPECT_FALSE(policy.downgrades(2));
  EXPECT_TRUE(policy.downgrades(3));

  policy.downgrade_final_attempt = false;
  EXPECT_FALSE(policy.downgrades(3));

  // A single-attempt policy never downgrades (there is no "relaxed last
  // try" when the first try is the last).
  policy.downgrade_final_attempt = true;
  policy.max_attempts = 1;
  EXPECT_FALSE(policy.downgrades(1));
}

TEST(RetryPolicy, DowngradedTaskRelaxesAccuracy) {
  RetryPolicy policy;
  policy.relaxed_accuracy_factor = 0.9;
  core::DotTask task;
  task.spec.name = "t";
  task.spec.min_accuracy = 0.8;
  const core::DotTask relaxed = downgraded_task(task, policy);
  EXPECT_DOUBLE_EQ(relaxed.spec.min_accuracy, 0.72);
  EXPECT_DOUBLE_EQ(task.spec.min_accuracy, 0.8);  // input untouched
}

TEST(RetryPolicy, ValidateRejectsBadConfigs) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
  policy = RetryPolicy{};
  policy.backoff_s = -1.0;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
  policy = RetryPolicy{};
  policy.backoff_multiplier = 0.0;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
  policy = RetryPolicy{};
  policy.relaxed_accuracy_factor = 1.5;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
  EXPECT_NO_THROW(RetryPolicy{}.validate());
}


// NaN passes every < / <= range check, so validation also demands finite
// values: a NaN backoff would put a NaN retry time into the event calendar.
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RetryPolicy, RejectsNonFiniteBackoff) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    RetryPolicy policy;
    policy.backoff_s = bad;
    EXPECT_THROW(policy.validate(), std::invalid_argument);
  }
}

TEST(RetryPolicy, RejectsNonFiniteMultiplier) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    RetryPolicy policy;
    policy.backoff_multiplier = bad;
    EXPECT_THROW(policy.validate(), std::invalid_argument);
  }
}

TEST(RetryPolicy, RejectsNonFiniteRelaxedAccuracyFactor) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    RetryPolicy policy;
    policy.relaxed_accuracy_factor = bad;
    EXPECT_THROW(policy.validate(), std::invalid_argument);
  }
}

}  // namespace
}  // namespace odn::runtime
