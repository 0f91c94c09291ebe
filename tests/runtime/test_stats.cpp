// ClassStats accounting edges (0/1/2/all-equal latency samples — the
// empty-vector guards in stats.cpp), merge_from aggregation, and the
// locale-independence of the JSON float formatting (json_double must keep
// a '.' decimal separator and full round-trip precision under any
// LC_NUMERIC, unlike snprintf %g).
#include <gtest/gtest.h>

#include <clocale>
#include <cstdlib>
#include <string>

#include "runtime/serving_runtime.h"
#include "runtime/stats.h"

namespace odn::runtime {
namespace {

TEST(ClassStats, NoSamplesYieldZeroPercentilesAndRates) {
  ClassStats stats;
  EXPECT_DOUBLE_EQ(stats.p50_latency_s(), 0.0);
  EXPECT_DOUBLE_EQ(stats.p95_latency_s(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_latency_s(), 0.0);
  EXPECT_DOUBLE_EQ(stats.slo_violation_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.admission_rate(), 0.0);
}

TEST(ClassStats, SingleSampleIsEveryPercentile) {
  ClassStats stats;
  stats.latency_samples_s = {0.125};
  EXPECT_DOUBLE_EQ(stats.p50_latency_s(), 0.125);
  EXPECT_DOUBLE_EQ(stats.p95_latency_s(), 0.125);
  EXPECT_DOUBLE_EQ(stats.mean_latency_s(), 0.125);
}

TEST(ClassStats, TwoSamplesInterpolate) {
  ClassStats stats;
  stats.latency_samples_s = {0.1, 0.2};
  EXPECT_DOUBLE_EQ(stats.p50_latency_s(), 0.15);
  EXPECT_NEAR(stats.p95_latency_s(), 0.195, 1e-12);
  EXPECT_DOUBLE_EQ(stats.mean_latency_s(), 0.15);
}

TEST(ClassStats, AllEqualSamplesCollapse) {
  ClassStats stats;
  stats.latency_samples_s.assign(9, 0.25);
  EXPECT_DOUBLE_EQ(stats.p50_latency_s(), 0.25);
  EXPECT_DOUBLE_EQ(stats.p95_latency_s(), 0.25);
  EXPECT_DOUBLE_EQ(stats.mean_latency_s(), 0.25);
}

TEST(ClassStats, ViolationAndAdmissionRates) {
  ClassStats stats;
  stats.arrivals = 8;
  stats.admitted = 6;
  stats.latency_samples_s = {0.1, 0.2, 0.3, 0.4};
  stats.slo_violations = 1;
  EXPECT_DOUBLE_EQ(stats.admission_rate(), 0.75);
  EXPECT_DOUBLE_EQ(stats.slo_violation_rate(), 0.25);
}

TEST(ClassStats, MergeFromSumsCountersAndAppendsSamples) {
  ClassStats a;
  a.name = "high";
  a.arrivals = 10;
  a.admitted = 7;
  a.admitted_first_try = 6;
  a.admitted_after_retry = 1;
  a.retries_scheduled = 2;
  a.rejected_final = 3;
  a.departures = 4;
  a.latency_samples_s = {0.1, 0.2};
  a.slo_violations = 1;

  ClassStats b;
  b.name = "ignored";
  b.arrivals = 5;
  b.admitted = 5;
  b.admitted_first_try = 5;
  b.departures = 2;
  b.pending_at_end = 1;
  b.latency_samples_s = {0.3};
  b.slo_violations = 2;

  a.merge_from(b);
  EXPECT_EQ(a.name, "high");
  EXPECT_EQ(a.arrivals, 15u);
  EXPECT_EQ(a.admitted, 12u);
  EXPECT_EQ(a.admitted_first_try, 11u);
  EXPECT_EQ(a.admitted_after_retry, 1u);
  EXPECT_EQ(a.retries_scheduled, 2u);
  EXPECT_EQ(a.rejected_final, 3u);
  EXPECT_EQ(a.departures, 6u);
  EXPECT_EQ(a.pending_at_end, 1u);
  EXPECT_EQ(a.slo_violations, 3u);
  ASSERT_EQ(a.latency_samples_s.size(), 3u);
  EXPECT_DOUBLE_EQ(a.latency_samples_s[2], 0.3);
}

TEST(JsonDouble, RoundTripsExactly) {
  for (const double value :
       {0.0, 0.5, 1.0 / 3.0, 6.25e-3, 1.7976931348623157e308,
        4.9406564584124654e-324, 123456789.123456789, -0.0625}) {
    const std::string text = json_double(value);
    char* end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    EXPECT_EQ(parsed, value) << text;
    EXPECT_EQ(*end, '\0') << text;
  }
}

// The locale regression the %.17g formatter had: under a comma-decimal
// LC_NUMERIC, snprintf prints "0,5" and the JSON report stops parsing.
// json_double uses std::to_chars, which ignores the process locale. The
// test skips (rather than silently passing) when the container has no
// comma-decimal locale installed.
TEST(JsonDouble, IgnoresCommaDecimalLocale) {
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous == nullptr ? "C" : previous;

  const char* candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                              "fr_FR.UTF-8", "fr_FR.utf8", "fr_FR",
                              "it_IT.UTF-8", "nl_NL.UTF-8"};
  bool locale_set = false;
  for (const char* name : candidates) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      locale_set = true;
      break;
    }
  }
  if (!locale_set)
    GTEST_SKIP() << "no comma-decimal locale installed in this image";

  // Under the comma locale, the libc formatter really does use a comma —
  // and json_double must not.
  char snprintf_buffer[64];
  std::snprintf(snprintf_buffer, sizeof(snprintf_buffer), "%.17g", 0.5);
  const std::string libc_text = snprintf_buffer;
  const std::string ours = json_double(0.5);
  std::setlocale(LC_NUMERIC, saved.c_str());

  EXPECT_EQ(libc_text, "0,5");  // proves the locale was in effect
  EXPECT_EQ(ours, "0.5");
}

// The full report stays parseable (no comma decimals anywhere) even when
// the process locale says otherwise.
TEST(RuntimeReport, JsonHasNoLocaleDecimalSeparators) {
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous == nullptr ? "C" : previous;
  // Best effort: the assertion below is locale-independent either way.
  std::setlocale(LC_NUMERIC, "de_DE.UTF-8");

  RuntimeReport report;
  report.trace_name = "locale-check";
  report.horizon_s = 12.5;
  report.classes.resize(1);
  report.classes[0].name = "only";
  report.classes[0].arrivals = 2;
  report.classes[0].admitted = 1;
  report.cells.resize(1);
  report.cells[0].classes.resize(1);
  report.cells[0].classes[0].latency_samples_s = {0.125, 0.375};
  report.cells[0].classes[0].slo_violations = 1;
  report.cells[0].watermarks.peak_memory_bytes = 1.5e9;
  cluster::ClusterEpochSnapshot epoch;
  epoch.time_s = 10.5;
  epoch.active_tasks = 1;
  epoch.samples = 2;
  epoch.slo_violations = 1;
  epoch.cells = {{2, 0.375, 0.25}};
  report.timeline.push_back(epoch);
  const std::string json = report.to_json();
  std::setlocale(LC_NUMERIC, saved.c_str());

  EXPECT_NE(json.find("\"horizon_s\": 12.5"), std::string::npos);
  EXPECT_NE(json.find("\"p95_s\": 0.375"), std::string::npos);
  EXPECT_NE(json.find("\"admission_rate\": 0.5"), std::string::npos);
  // A comma directly between digits can only come from a locale-formatted
  // double; the canonical report never produces one.
  for (std::size_t i = 1; i + 1 < json.size(); ++i) {
    if (json[i] == ',') {
      EXPECT_FALSE(std::isdigit(static_cast<unsigned char>(json[i - 1])) &&
                   std::isdigit(static_cast<unsigned char>(json[i + 1])))
          << "locale comma at offset " << i;
    }
  }
}

}  // namespace
}  // namespace odn::runtime
