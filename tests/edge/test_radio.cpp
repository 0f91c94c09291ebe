#include "edge/radio.h"

#include <limits>

#include <gtest/gtest.h>

namespace odn::edge {
namespace {

TEST(RadioModel, FixedModeIgnoresSnr) {
  const RadioModel radio = RadioModel::fixed(350e3);
  EXPECT_DOUBLE_EQ(radio.bits_per_rb_per_second(-5.0), 350e3);
  EXPECT_DOUBLE_EQ(radio.bits_per_rb_per_second(25.0), 350e3);
}

TEST(RadioModel, FixedModeRejectsNonPositiveRate) {
  EXPECT_THROW(RadioModel::fixed(0.0), std::invalid_argument);
  EXPECT_THROW(RadioModel::fixed(-1.0), std::invalid_argument);
}

// A NaN or infinite rate would reach the emulator's event times.
TEST(RadioModel, RejectsNonFiniteRateAndScale) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(RadioModel::fixed(bad), std::invalid_argument) << bad;
    EXPECT_THROW(RadioModel::fixed(350e3).scaled(bad), std::invalid_argument)
        << bad;
  }
}

TEST(RadioModel, LteThroughputIncreasesWithSnr) {
  const RadioModel radio = RadioModel::lte();
  double previous = 0.0;
  for (const double snr : {-8.0, -3.0, 2.0, 8.0, 15.0, 23.0}) {
    const double rate = radio.bits_per_rb_per_second(snr);
    EXPECT_GE(rate, previous);
    previous = rate;
  }
}

TEST(RadioModel, LteMidSnrNearPaperOperatingPoint) {
  // Around ~10 dB the LTE table should land in the same decade as the
  // paper's 0.35 Mbps/RB operating point.
  const RadioModel radio = RadioModel::lte();
  const double rate = radio.bits_per_rb_per_second(10.5);
  EXPECT_GT(rate, 0.1e6);
  EXPECT_LT(rate, 1.0e6);
}

TEST(RadioModel, TransmissionTimeScalesInversely) {
  const RadioModel radio = RadioModel::fixed(350e3);
  const double one_rb = radio.transmission_time_s(350e3, 1, 20.0);
  const double five_rb = radio.transmission_time_s(350e3, 5, 20.0);
  EXPECT_DOUBLE_EQ(one_rb, 1.0);
  EXPECT_DOUBLE_EQ(five_rb, 0.2);
}

TEST(RadioModel, TransmissionWithZeroRbsThrows) {
  const RadioModel radio = RadioModel::fixed(350e3);
  EXPECT_THROW(radio.transmission_time_s(1e3, 0, 20.0),
               std::invalid_argument);
}

TEST(RadioModel, MinRbsForDeadline) {
  const RadioModel radio = RadioModel::fixed(350e3);
  // 350 kb in 0.2 s requires 5 RBs (exactly); in 0.19 s requires 6.
  EXPECT_EQ(radio.min_rbs_for_deadline(350e3, 0.2, 20.0), 5u);
  EXPECT_EQ(radio.min_rbs_for_deadline(350e3, 0.19, 20.0), 6u);
}

TEST(RadioModel, MinRbsForDeadlineRejectsBadDeadline) {
  const RadioModel radio = RadioModel::fixed(350e3);
  EXPECT_THROW(radio.min_rbs_for_deadline(1e3, 0.0, 20.0),
               std::invalid_argument);
}

TEST(RadioModel, MinRbsForRate) {
  const RadioModel radio = RadioModel::fixed(350e3);
  EXPECT_EQ(radio.min_rbs_for_rate(350e3, 20.0), 1u);
  EXPECT_EQ(radio.min_rbs_for_rate(350e3 * 2.5, 20.0), 3u);
  EXPECT_EQ(radio.min_rbs_for_rate(0.0, 20.0), 0u);
}

}  // namespace
}  // namespace odn::edge
