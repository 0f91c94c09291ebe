// MetricsRegistry: accumulator semantics (counter/histogram), histogram
// bucket boundaries under Prometheus `le` rules, registry conflict
// detection and the deterministic Prometheus text export (with label
// escaping).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace odn::obs {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Histogram, BucketBoundariesFollowLeSemantics) {
  Histogram histogram({1.0, 2.0, 5.0});
  ASSERT_EQ(histogram.bucket_count(), 4u);  // 3 bounds + overflow

  histogram.observe(0.5);    // below first bound
  histogram.observe(-3.0);   // no underflow bucket: lands in bucket 0 too
  histogram.observe(1.0);    // exact boundary: le="1" includes it
  histogram.observe(1.5);
  histogram.observe(2.0);    // exact boundary again
  histogram.observe(5.0);
  histogram.observe(5.0001); // above last bound: +Inf overflow

  EXPECT_EQ(histogram.bucket(0), 3u);  // 0.5, -3.0, 1.0
  EXPECT_EQ(histogram.bucket(1), 2u);  // 1.5, 2.0
  EXPECT_EQ(histogram.bucket(2), 1u);  // 5.0
  EXPECT_EQ(histogram.bucket(3), 1u);  // 5.0001
  EXPECT_EQ(histogram.count(), 7u);
  EXPECT_NEAR(histogram.sum(), 0.5 - 3.0 + 1.0 + 1.5 + 2.0 + 5.0 + 5.0001,
              1e-5);

  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.bucket(0), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
}

TEST(Histogram, InfinityLandsInOverflowBucketWithSaturatedSum) {
  Histogram histogram({1.0, 2.0});
  histogram.observe(std::numeric_limits<double>::infinity());
  // The micro-unit sum saturates per observation instead of going NaN, so
  // the exported _sum stays a finite (if meaningless) sentinel.
  EXPECT_TRUE(std::isfinite(histogram.sum()));
  EXPECT_GT(histogram.sum(), 9.0e12);
  histogram.observe(1e300);  // huge but finite: also past the last bound
  EXPECT_EQ(histogram.bucket(0), 0u);
  EXPECT_EQ(histogram.bucket(1), 0u);
  EXPECT_EQ(histogram.bucket(2), 2u);  // the +Inf overflow bucket
  EXPECT_EQ(histogram.count(), 2u);
}

TEST(Histogram, RejectsInvalidBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(
      Histogram({1.0, std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
}

TEST(MetricsRegistry, ReturnsStableReferencesAndDetectsConflicts) {
  MetricsRegistry registry;
  Counter& a = registry.counter("odn_test_total");
  Counter& b = registry.counter("odn_test_total");
  EXPECT_EQ(&a, &b);

  Counter& labelled =
      registry.counter("odn_test_total", {{"class", "high"}});
  EXPECT_NE(&a, &labelled);
  // Label canonicalization: order does not matter.
  Counter& two_a = registry.counter(
      "odn_test_pair_total", {{"x", "1"}, {"y", "2"}});
  Counter& two_b = registry.counter(
      "odn_test_pair_total", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&two_a, &two_b);

  // Same name, different metric type: rejected.
  EXPECT_THROW(registry.histogram("odn_test_total", {1.0}),
               std::invalid_argument);

  Histogram& h = registry.histogram("odn_test_seconds", {0.1, 1.0});
  EXPECT_EQ(&h, &registry.histogram("odn_test_seconds", {0.1, 1.0}));
  // Same name, different bounds: rejected.
  EXPECT_THROW(registry.histogram("odn_test_seconds", {0.1, 2.0}),
               std::invalid_argument);

  // Duplicate label keys: rejected.
  EXPECT_THROW(
      registry.counter("odn_test_dup_total", {{"k", "a"}, {"k", "b"}}),
      std::invalid_argument);
}

TEST(MetricsRegistry, MismatchedBoundsErrorNamesTheMetric) {
  MetricsRegistry registry;
  registry.histogram("odn_named_seconds", {0.1, 1.0});
  try {
    registry.histogram("odn_named_seconds", {0.1, 2.0});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    // The message must name the offending metric so a mis-wired call site
    // is identifiable from the exception alone.
    const std::string what = error.what();
    EXPECT_NE(what.find("odn_named_seconds"), std::string::npos) << what;
    EXPECT_NE(what.find("different bounds"), std::string::npos) << what;
  }
}

TEST(MetricsRegistry, ResetValuesKeepsRegistrations) {
  MetricsRegistry registry;
  registry.counter("odn_reset_total").inc(5);
  registry.histogram("odn_reset_seconds", {1.0}).observe(0.5);
  const std::size_t count = registry.metric_count();
  EXPECT_EQ(count, 2u);

  registry.reset_values();
  EXPECT_EQ(registry.metric_count(), count);
  EXPECT_EQ(registry.counter("odn_reset_total").value(), 0u);
  EXPECT_EQ(registry.histogram("odn_reset_seconds", {1.0}).count(), 0u);
}

TEST(MetricsRegistry, PrometheusExportIsSortedAndCumulative) {
  MetricsRegistry registry;
  // Registered intentionally out of lexicographic order.
  registry.counter("odn_z_total").inc(1);
  registry.counter("odn_a_total").inc(2);
  Histogram& h = registry.histogram("odn_m_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(2.0);

  const std::string text = registry.to_prometheus();
  // Export order is sorted by name, not registration order.
  EXPECT_LT(text.find("odn_a_total"), text.find("odn_m_seconds"));
  EXPECT_LT(text.find("odn_m_seconds"), text.find("odn_z_total"));

  // Cumulative le buckets plus _sum/_count.
  EXPECT_NE(text.find("# TYPE odn_m_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("odn_m_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("odn_m_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("odn_m_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("odn_m_seconds_count 3"), std::string::npos);

  // Two snapshots of the same state are byte-identical.
  EXPECT_EQ(text, registry.to_prometheus());
}

TEST(MetricsRegistry, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry
      .counter("odn_escape_total",
               {{"path", "a\\b"}, {"quote", "say \"hi\""}, {"nl", "x\ny"}})
      .inc();
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("nl=\"x\\ny\""), std::string::npos);
  EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos);
  EXPECT_NE(text.find("quote=\"say \\\"hi\\\"\""), std::string::npos);
  // The raw newline must not survive into the exposition line.
  EXPECT_EQ(text.find("x\ny"), std::string::npos);
}

}  // namespace
}  // namespace odn::obs
