#include "util/mathx.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace odn::util {
namespace {

TEST(Mean, BasicAndEmpty) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(values), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(MovingAverage, WindowOneIsIdentity) {
  const std::vector<double> values{1.0, 5.0, 3.0};
  EXPECT_EQ(moving_average(values, 1), values);
}

TEST(MovingAverage, WindowThreeCentered) {
  const std::vector<double> values{0.0, 3.0, 6.0, 9.0};
  const auto smoothed = moving_average(values, 3);
  ASSERT_EQ(smoothed.size(), 4u);
  EXPECT_DOUBLE_EQ(smoothed[0], 1.5);   // (0+3)/2 at the edge
  EXPECT_DOUBLE_EQ(smoothed[1], 3.0);   // (0+3+6)/3
  EXPECT_DOUBLE_EQ(smoothed[2], 6.0);   // (3+6+9)/3
  EXPECT_DOUBLE_EQ(smoothed[3], 7.5);   // (6+9)/2
}

TEST(MovingAverage, ZeroWindowThrows) {
  const std::vector<double> values{1.0};
  EXPECT_THROW(moving_average(values, 0), std::invalid_argument);
}

TEST(MovingAverage, EmptyInput) {
  EXPECT_TRUE(moving_average({}, 3).empty());
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> values{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(values, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 5.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> values{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(values, 25.0), 2.5);
}

TEST(Percentile, InvalidInputsThrow) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Percentile, SingleSampleIsEveryPercentile) {
  for (const double pct : {0.0, 37.5, 50.0, 95.0, 100.0})
    EXPECT_DOUBLE_EQ(percentile({42.0}, pct), 42.0);
}

TEST(Percentile, TwoSamplesInterpolateLinearly) {
  std::vector<double> values{10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(values, 95.0), 19.5);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 20.0);
}

TEST(Percentile, AllEqualSamplesCollapse) {
  std::vector<double> values(7, 3.25);
  for (const double pct : {0.0, 50.0, 95.0, 100.0})
    EXPECT_DOUBLE_EQ(percentile(values, pct), 3.25);
}

// The percentile of a full sort, written out: the reference the selection
// in percentile() must reproduce bit for bit.
double sorted_percentile(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

TEST(Percentile, SelectionIsBitEqualToSortedReference) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::size_t>(
        trial < 100 ? 1 + trial % 2 : rng.uniform_int(1, 400));
    std::vector<double> values(n);
    for (double& value : values) {
      // A coarse grid makes duplicates common.
      value = rng.bernoulli(0.5)
                  ? static_cast<double>(rng.uniform_int(0, 20)) * 0.125
                  : rng.uniform(0.0, 3.0);
    }
    for (const double pct : {0.0, 50.0, 95.0, 100.0, rng.uniform(0.0, 100.0)}) {
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << ", n " << n << ", pct " << pct);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile(values, pct)),
                std::bit_cast<std::uint64_t>(sorted_percentile(values, pct)));
    }
  }
}

TEST(Percentile, InPlaceIsBitEqualToCopying) {
  Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> values(
        static_cast<std::size_t>(rng.uniform_int(1, 200)));
    for (double& value : values) value = rng.uniform(0.0, 3.0);
    for (const double pct : {0.0, 50.0, 95.0, 100.0}) {
      std::vector<double> scratch = values;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile_in_place(scratch, pct)),
                std::bit_cast<std::uint64_t>(percentile(values, pct)));
    }
  }
  std::vector<double> none;
  EXPECT_THROW(percentile_in_place(none, 50.0), std::invalid_argument);
}

TEST(Clamp, Bounds) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
}

}  // namespace
}  // namespace odn::util
