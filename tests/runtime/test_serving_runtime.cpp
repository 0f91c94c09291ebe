// ServingRuntime: lifecycle accounting invariants, epoch measurement,
// retry/downgrade behavior, full-departure cleanup and the determinism
// contract (equal seeds → byte-identical JSON for any thread count).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "util/thread_pool.h"

namespace odn::runtime {
namespace {

WorkloadTrace small_trace(std::uint64_t seed = 11, double horizon = 30.0) {
  WorkloadOptions options;
  options.horizon_s = horizon;
  options.seed = seed;
  options.arrival_rate_per_s = 0.8;
  options.mean_holding_s = 10.0;
  return generate_workload(5, options);
}

ServingRuntime small_runtime(RuntimeOptions options = {}) {
  const core::DotInstance instance = core::make_small_scenario(5);
  return ServingRuntime(instance.catalog, instance.resources, instance.radio,
                        instance.tasks, options);
}

TEST(ServingRuntime, LifecycleAccountingBalances) {
  const WorkloadTrace trace = small_trace();
  ServingRuntime runtime = small_runtime();
  const RuntimeReport report = runtime.run(trace);

  std::size_t arrivals = 0;
  std::size_t retries = 0;
  // Departures live on the cell, so only the aggregate sees them.
  for (const ClassStats& c : report.aggregate_classes()) {
    SCOPED_TRACE(c.name);
    // Every arriving job ends in exactly one lifecycle bucket.
    EXPECT_EQ(c.arrivals, c.admitted + c.rejected_final +
                              c.departed_before_admission + c.pending_at_end);
    EXPECT_EQ(c.admitted, c.admitted_first_try + c.admitted_after_retry);
    EXPECT_LE(c.departures, c.admitted);
    EXPECT_LE(c.admitted_downgraded, c.admitted);
    arrivals += c.arrivals;
    retries += c.retries_scheduled;
  }
  EXPECT_EQ(arrivals, trace.arrival_count());
  // The loop processes every trace event, every scheduled retry and every
  // epoch exactly once.
  EXPECT_EQ(report.events_processed,
            trace.events.size() + retries + report.epochs);

  // Active jobs at the horizon match the controller's live task set.
  EXPECT_EQ(report.active_at_end, runtime.controller().active_tasks().size());
}

TEST(ServingRuntime, WatermarksStayWithinCapacity) {
  const core::DotInstance instance = core::make_small_scenario(5);
  ServingRuntime runtime(instance.catalog, instance.resources,
                         instance.radio, instance.tasks);
  const RuntimeReport report = runtime.run(small_trace());
  ASSERT_EQ(report.cells.size(), 1u);
  const ResourceWatermarks& watermarks = report.cells[0].watermarks;
  EXPECT_GT(watermarks.peak_memory_bytes, 0.0);
  EXPECT_LE(watermarks.peak_memory_bytes,
            instance.resources.memory_capacity_bytes + 1e-9);
  EXPECT_LE(watermarks.peak_compute_s,
            instance.resources.compute_capacity_s + 1e-9);
  EXPECT_LE(watermarks.peak_rbs, instance.resources.total_rbs);
  EXPECT_EQ(watermarks.rb_capacity, instance.resources.total_rbs);
}

TEST(ServingRuntime, EpochMeasurementPopulatesLatencies) {
  RuntimeOptions options;
  options.epoch_s = 10.0;
  options.emulation_window_s = 4.0;
  ServingRuntime runtime = small_runtime(options);
  const RuntimeReport report = runtime.run(small_trace(11, 30.0));

  EXPECT_EQ(report.epochs, 3u);  // t = 10, 20, 30
  ASSERT_EQ(report.timeline.size(), 3u);
  // Latency samples and SLO violations live on the cell.
  const std::vector<ClassStats> classes = report.aggregate_classes();
  std::size_t samples = 0;
  for (const ClassStats& c : classes) samples += c.latency_samples_s.size();
  EXPECT_GT(samples, 0u);
  for (const cluster::ClusterEpochSnapshot& epoch : report.timeline) {
    ASSERT_EQ(epoch.cells.size(), 1u);
    if (epoch.active_tasks > 0) {
      EXPECT_GT(epoch.samples, 0u);
      EXPECT_GT(epoch.cells[0].p95_latency_s, 0.0);
    }
  }
  for (const ClassStats& c : classes) {
    if (c.latency_samples_s.empty()) continue;
    EXPECT_GE(c.p95_latency_s(), c.p50_latency_s());
    EXPECT_LE(c.slo_violations, c.latency_samples_s.size());
  }
}

TEST(ServingRuntime, EpochZeroDisablesMeasurement) {
  RuntimeOptions options;
  options.epoch_s = 0.0;
  ServingRuntime runtime = small_runtime(options);
  const RuntimeReport report = runtime.run(small_trace());
  EXPECT_EQ(report.epochs, 0u);
  EXPECT_TRUE(report.timeline.empty());
  const std::vector<ClassStats> classes = report.aggregate_classes();
  ASSERT_FALSE(classes.empty());
  for (const ClassStats& c : classes) {
    EXPECT_TRUE(c.latency_samples_s.empty());
    EXPECT_EQ(c.slo_violations, 0u);
  }
}

TEST(ServingRuntime, ManualTraceFullDepartureReturnsToZero) {
  WorkloadTrace trace;
  trace.name = "manual";
  trace.horizon_s = 20.0;
  trace.template_count = 5;
  trace.events = {
      {1.0, WorkloadEventKind::kArrival, 0, 0},
      {2.0, WorkloadEventKind::kArrival, 1, 2},
      {3.0, WorkloadEventKind::kArrival, 2, 4},
      {12.0, WorkloadEventKind::kDeparture, 1, 2},
      {15.0, WorkloadEventKind::kDeparture, 0, 0},
      {18.0, WorkloadEventKind::kDeparture, 2, 4},
  };
  ServingRuntime runtime = small_runtime();
  const RuntimeReport report = runtime.run(trace);

  EXPECT_EQ(report.total_arrivals(), 3u);
  EXPECT_EQ(report.active_at_end, 0u);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].deployed_blocks_at_end, 0u);
  EXPECT_TRUE(runtime.controller().active_tasks().empty());
  EXPECT_EQ(runtime.controller().ledger().memory_used_bytes(), 0.0);
  EXPECT_EQ(runtime.controller().ledger().compute_used_s(), 0.0);
  EXPECT_EQ(runtime.controller().ledger().rbs_used(), 0u);
  // The deployment *was* live in between.
  EXPECT_GT(report.cells[0].watermarks.peak_memory_bytes, 0.0);
}

TEST(ServingRuntime, OverloadExercisesRetriesAndRejections) {
  // The large scenario is sized for 20 concurrent tasks; ~45 concurrent
  // jobs at steady state forces rejections, retries and downgrades.
  const core::DotInstance instance =
      core::make_large_scenario(core::RequestRate::kLow);
  WorkloadOptions workload;
  workload.horizon_s = 40.0;
  workload.seed = 3;
  workload.arrival_rate_per_s = 1.5;
  workload.mean_holding_s = 30.0;
  const WorkloadTrace trace =
      generate_workload(instance.tasks.size(), workload);

  RuntimeOptions options;
  options.epoch_s = 0.0;  // lifecycle only; keep the test fast
  options.retry.max_attempts = 3;
  options.retry.backoff_s = 1.0;
  options.retry.downgrade_final_attempt = true;
  ServingRuntime runtime(instance.catalog, instance.resources,
                         instance.radio, instance.tasks, options);
  const RuntimeReport report = runtime.run(trace);

  std::size_t retries = 0;
  std::size_t terminal = 0;
  for (const ClassStats& c : report.classes) {
    retries += c.retries_scheduled;
    terminal += c.rejected_final + c.admitted_after_retry +
                c.admitted_downgraded;
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(terminal, 0u);
}

TEST(ServingRuntime, DeterministicAcrossRunsAndThreadCounts) {
  const WorkloadTrace trace = small_trace(21, 25.0);

  util::set_thread_count(1);
  const std::string serial = small_runtime().run(trace).to_json();
  util::set_thread_count(4);
  const std::string four = small_runtime().run(trace).to_json();
  util::set_thread_count(8);
  const std::string eight = small_runtime().run(trace).to_json();
  util::set_thread_count(0);

  // Byte-identical JSON: the determinism contract of the runtime loop on
  // top of the thread pool's bit-identical parallel plan assembly.
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, eight);

  // And re-running on a fresh runtime reproduces it again.
  const std::string again = small_runtime().run(trace).to_json();
  EXPECT_EQ(serial, again);
}

TEST(ServingRuntime, ClassOfMapsPriorityLadder) {
  ServingRuntime runtime = small_runtime();
  EXPECT_EQ(runtime.class_of(0.1), 0u);   // low
  EXPECT_EQ(runtime.class_of(0.5), 1u);   // medium
  EXPECT_EQ(runtime.class_of(0.9), 2u);   // high
  EXPECT_EQ(runtime.class_of(0.35), 1u);  // boundary goes up
  EXPECT_EQ(runtime.class_of(0.7), 2u);
}

TEST(ServingRuntime, RejectsMismatchedTraceAndBadOptions) {
  const WorkloadTrace trace = small_trace();
  {
    const core::DotInstance instance = core::make_small_scenario(3);
    ServingRuntime runtime(instance.catalog, instance.resources,
                           instance.radio, instance.tasks);
    EXPECT_THROW(runtime.run(trace), std::invalid_argument);  // 3 != 5
  }
  {
    RuntimeOptions options;
    options.class_names = {"only-one"};  // boundaries need two names
    EXPECT_THROW(small_runtime(options), std::invalid_argument);
  }
  {
    RuntimeOptions options;
    options.epoch_s = 5.0;
    options.emulation_window_s = 0.0;
    EXPECT_THROW(small_runtime(options), std::invalid_argument);
  }
}


// Non-finite option values: every range check compares with < or <=, which
// NaN passes silently, so each field is also checked for finiteness. The
// multi-cell options inherit the same validation.
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

template <typename Mutate>
void expect_rejected_by_both_options(Mutate mutate) {
  RuntimeOptions single;
  mutate(single);
  EXPECT_THROW(single.validate(), std::invalid_argument);
  cluster::ClusterOptions multi;
  mutate(multi);
  EXPECT_THROW(multi.validate(), std::invalid_argument);
}

TEST(RuntimeOptions, RejectsNonFiniteEpoch) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    expect_rejected_by_both_options(
        [&](auto& options) { options.epoch_s = bad; });
  }
}

TEST(RuntimeOptions, RejectsNonFiniteEmulationWindow) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    expect_rejected_by_both_options([&](auto& options) {
      options.emulation_window_s = bad;
    });
  }
}

TEST(RuntimeOptions, RejectsNonFiniteClassBoundary) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    expect_rejected_by_both_options([&](auto& options) {
      options.class_boundaries = {0.35, bad};
    });
    expect_rejected_by_both_options([&](auto& options) {
      options.class_boundaries = {bad, 0.7};
    });
  }
}

}  // namespace
}  // namespace odn::runtime
