#include "edge/resources.h"

#include <gtest/gtest.h>

#include <limits>

namespace odn::edge {
namespace {

EdgeResources sample_resources() {
  EdgeResources resources;
  resources.compute_capacity_s = 2.5;
  resources.training_budget_s = 1000.0;
  resources.memory_capacity_bytes = 8e9;
  resources.total_rbs = 50;
  return resources;
}

TEST(EdgeResources, ValidPasses) {
  EXPECT_NO_THROW(sample_resources().validate());
}

TEST(EdgeResources, NonPositiveCapacitiesThrow) {
  EdgeResources resources = sample_resources();
  resources.compute_capacity_s = 0.0;
  EXPECT_THROW(resources.validate(), std::invalid_argument);
  resources = sample_resources();
  resources.memory_capacity_bytes = -1.0;
  EXPECT_THROW(resources.validate(), std::invalid_argument);
  resources = sample_resources();
  resources.total_rbs = 0;
  EXPECT_THROW(resources.validate(), std::invalid_argument);
  resources = sample_resources();
  resources.training_budget_s = 0.0;
  EXPECT_THROW(resources.validate(), std::invalid_argument);
}

// NaN fails no `<= 0` check, so each capacity must also be finite.
TEST(EdgeResources, NonFiniteCapacitiesThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double EdgeResources::*field :
       {&EdgeResources::compute_capacity_s, &EdgeResources::training_budget_s,
        &EdgeResources::memory_capacity_bytes}) {
    for (const double bad : {nan, inf, -inf}) {
      SCOPED_TRACE(bad);
      EdgeResources resources = sample_resources();
      resources.*field = bad;
      EXPECT_THROW(resources.validate(), std::invalid_argument);
    }
  }
}

TEST(ResourceLedger, CommitWithinCapacity) {
  ResourceLedger ledger(sample_resources());
  EXPECT_TRUE(ledger.try_commit(1.0, 4e9, 30));
  EXPECT_DOUBLE_EQ(ledger.compute_used_s(), 1.0);
  EXPECT_DOUBLE_EQ(ledger.memory_used_bytes(), 4e9);
  EXPECT_EQ(ledger.rbs_used(), 30u);
}

TEST(ResourceLedger, RejectsOverCommitAtomically) {
  ResourceLedger ledger(sample_resources());
  EXPECT_TRUE(ledger.try_commit(2.0, 1e9, 10));
  // Memory would overflow: nothing may change.
  EXPECT_FALSE(ledger.try_commit(0.1, 8e9, 1));
  EXPECT_DOUBLE_EQ(ledger.compute_used_s(), 2.0);
  EXPECT_EQ(ledger.rbs_used(), 10u);
}

TEST(ResourceLedger, RejectsEachDimension) {
  ResourceLedger ledger(sample_resources());
  EXPECT_FALSE(ledger.try_commit(3.0, 0.0, 0));   // compute
  EXPECT_FALSE(ledger.try_commit(0.0, 9e9, 0));   // memory
  EXPECT_FALSE(ledger.try_commit(0.0, 0.0, 51));  // RBs
}

TEST(ResourceLedger, Reset) {
  ResourceLedger ledger(sample_resources());
  EXPECT_TRUE(ledger.try_commit(2.0, 6e9, 40));
  ledger.reset();
  EXPECT_DOUBLE_EQ(ledger.compute_used_s(), 0.0);
  EXPECT_EQ(ledger.rbs_used(), 0u);
  EXPECT_TRUE(ledger.try_commit(2.5, 8e9, 50));
}

TEST(ResourceLedger, InvalidCapacityThrowsAtConstruction) {
  EdgeResources bad = sample_resources();
  bad.total_rbs = 0;
  EXPECT_THROW(ResourceLedger{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace odn::edge
