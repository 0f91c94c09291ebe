// Scheduling subsystem wired into the runtimes (DESIGN.md §9): the strict
// no-op contract when disabled, the SLO-bucket conservation property
//   met + missed + preempted + downgraded + rejected == arrivals
// across seeds, the preemption-lifecycle ledger, and byte-identical
// reports for any ODN_THREADS setting with the ladder active — on both
// the single-cell ServingRuntime and the multi-cell ClusterRuntime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "cluster/cell.h"
#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "sched/sched_stats.h"
#include "util/thread_pool.h"

namespace odn {
namespace {

// QoS-annotated churn over the small scenario's five templates. Uniform
// priorities in [0, 1) give the ladder victims at every rung.
runtime::WorkloadTrace qos_trace(std::uint64_t seed, double horizon = 30.0,
                                 double rate = 1.4, double tightness = 0.8) {
  runtime::WorkloadOptions options;
  options.horizon_s = horizon;
  options.seed = seed;
  options.arrival_rate_per_s = rate;
  options.mean_holding_s = 12.0;
  options.qos.enabled = true;
  options.qos.deadline_tightness = tightness;
  return runtime::generate_workload(5, options);
}

// Single cell with capacities tightened so the ladder actually has to
// displace work (the full small scenario admits everything).
runtime::ServingRuntime pressured_runtime(runtime::RuntimeOptions options) {
  const core::DotInstance instance = core::make_small_scenario(5);
  edge::EdgeResources squeezed = instance.resources;
  squeezed.memory_capacity_bytes *= 0.6;
  squeezed.compute_capacity_s *= 0.6;
  squeezed.total_rbs = std::max<std::size_t>(1, squeezed.total_rbs / 2);
  return runtime::ServingRuntime(instance.catalog, squeezed, instance.radio,
                                 instance.tasks, options);
}

cluster::ClusterRuntime pressured_cluster(std::size_t cells,
                                          cluster::ClusterOptions options) {
  const core::DotInstance instance = core::make_small_scenario(5);
  edge::EdgeResources base = instance.resources;
  base.memory_capacity_bytes *= 0.6;
  base.compute_capacity_s *= 0.6;
  base.total_rbs = std::max<std::size_t>(1, base.total_rbs / 2);
  return cluster::ClusterRuntime(instance.catalog,
                                 cluster::make_cells(cells, base, 5),
                                 instance.radio, instance.tasks, options);
}

runtime::RuntimeOptions sched_options() {
  runtime::RuntimeOptions options;
  options.retry.max_attempts = 3;
  options.retry.backoff_s = 1.0;
  options.sched.enabled = true;
  return options;
}

// Exactly one deadline bucket per tracked arrival, and exactly one
// resolution bucket per ladder preemption.
void expect_sched_conservation(const sched::SchedStats& sched,
                               std::size_t arrivals) {
  EXPECT_EQ(sched.met + sched.missed + sched.preempted + sched.downgraded +
                sched.rejected,
            arrivals);
  EXPECT_EQ(sched.preemptions,
            sched.preempted_readmitted + sched.preempted_rejected +
                sched.preempted_departed + sched.preempted_pending_at_end);
}

TEST(SchedServingRuntime, DisabledSchedulingIsAStrictNoOp) {
  const runtime::WorkloadTrace trace = qos_trace(17);
  runtime::RuntimeOptions plain;
  runtime::RuntimeOptions tweaked;
  // Non-enabled knobs must be inert — only `enabled` changes the path.
  tweaked.sched.max_victims = 7;
  tweaked.sched.allow_downgrade = false;
  tweaked.sched.default_deadline_s = 0.25;

  const std::string a = pressured_runtime(plain).run(trace).to_json();
  const std::string b = pressured_runtime(tweaked).run(trace).to_json();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("\"sched\""), std::string::npos);
}

TEST(SchedServingRuntime, QosAnnotationIsInertWhileSchedulingIsOff) {
  // The annotation layer rewrites no base event, and a disabled scheduler
  // never reads the QoS fields — so annotating a trace must not move a
  // single report byte.
  runtime::WorkloadOptions options;
  options.horizon_s = 30.0;
  options.seed = 23;
  options.arrival_rate_per_s = 1.4;
  options.mean_holding_s = 12.0;
  const runtime::WorkloadTrace plain = runtime::generate_workload(5, options);
  runtime::WorkloadTrace annotated = plain;
  runtime::annotate_qos(annotated, runtime::WorkloadQosOptions{}, 23);
  ASSERT_TRUE(annotated.has_qos());

  runtime::RuntimeOptions runtime_options;
  const std::string a = pressured_runtime(runtime_options).run(plain).to_json();
  const std::string b =
      pressured_runtime(runtime_options).run(annotated).to_json();
  EXPECT_EQ(a, b);
}

TEST(SchedServingRuntime, BucketConservationHoldsForAnySeed) {
  std::size_t ladder_activity = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const runtime::WorkloadTrace trace = qos_trace(seed);
    runtime::ServingRuntime runtime = pressured_runtime(sched_options());
    const runtime::RuntimeReport report = runtime.run(trace);

    ASSERT_TRUE(report.sched.enabled);
    expect_sched_conservation(report.sched, report.total_arrivals());
    ladder_activity +=
        report.sched.preemptions + report.sched.downgrades;

    // The admission lifecycle identities survive the ladder.
    std::size_t retries = 0;
    for (const runtime::ClassStats& c : report.classes) {
      SCOPED_TRACE(c.name);
      EXPECT_EQ(c.arrivals,
                c.admitted + c.rejected_final + c.departed_before_admission +
                    c.pending_at_end);
      retries += c.retries_scheduled;
    }
    // Every trace event, admission retry, sched readmission retry and
    // epoch is processed exactly once.
    EXPECT_EQ(report.events_processed,
              trace.events.size() + retries +
                  report.sched.readmission_retries + report.epochs);

    // One ladder decision per arrival attempt that reached the policy.
    EXPECT_EQ(report.sched.timeline.size(), report.epochs);
    // Capacity envelope still honored with victims churning in and out.
    const runtime::ResourceWatermarks& watermarks =
        report.cells.at(0).watermarks;
    EXPECT_LE(watermarks.peak_memory_bytes,
              watermarks.memory_capacity_bytes * (1.0 + 1e-9));
    EXPECT_LE(watermarks.peak_compute_s,
              watermarks.compute_capacity_s * (1.0 + 1e-9));
    EXPECT_LE(watermarks.peak_rbs, watermarks.rb_capacity);
  }
  // The sweep must actually exercise the ladder, or the identities above
  // are vacuous.
  EXPECT_GT(ladder_activity, 0u);
}

TEST(SchedServingRuntime, EpochSnapshotsCoverEveryTrackedJob) {
  const runtime::WorkloadTrace trace = qos_trace(5);
  runtime::ServingRuntime runtime = pressured_runtime(sched_options());
  const runtime::RuntimeReport report = runtime.run(trace);

  ASSERT_FALSE(report.sched.timeline.empty());
  double last = -1.0;
  for (const sched::SchedEpochBuckets& epoch : report.sched.timeline) {
    EXPECT_GT(epoch.time_s, last);
    last = epoch.time_s;
    // Bucketed + pending is every arrival seen so far: bounded by totals.
    EXPECT_LE(epoch.met + epoch.missed + epoch.preempted + epoch.downgraded +
                  epoch.rejected + epoch.pending,
              report.total_arrivals());
    EXPECT_LE(epoch.serving, report.total_arrivals());
  }
}

TEST(SchedServingRuntime, ReportsAreByteIdenticalAcrossThreadCounts) {
  const runtime::WorkloadTrace trace = qos_trace(29);
  const runtime::RuntimeOptions options = sched_options();

  util::set_thread_count(1);
  const std::string serial = pressured_runtime(options).run(trace).to_json();
  util::set_thread_count(4);
  const std::string four = pressured_runtime(options).run(trace).to_json();
  util::set_thread_count(8);
  const std::string eight = pressured_runtime(options).run(trace).to_json();
  util::set_thread_count(0);

  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, eight);
}

TEST(SchedServingRuntime, RerunLeavesNoResidue) {
  // A sched-heavy run must return the runtime to its fixed point: the same
  // trace replayed on the same instance reproduces the report exactly.
  const runtime::WorkloadTrace trace = qos_trace(31);
  runtime::ServingRuntime runtime = pressured_runtime(sched_options());
  const std::string first = runtime.run(trace).to_json();
  const std::string second = runtime.run(trace).to_json();
  EXPECT_EQ(first, second);
}

TEST(SchedClusterRuntime, DisabledSchedulingIsAStrictNoOp) {
  const runtime::WorkloadTrace trace = qos_trace(17);
  cluster::ClusterOptions plain;
  cluster::ClusterOptions tweaked;
  tweaked.sched.max_victims = 7;
  tweaked.sched.allow_preempt = false;

  const std::string a = pressured_cluster(3, plain).run(trace).to_json();
  const std::string b = pressured_cluster(3, tweaked).run(trace).to_json();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("\"sched\""), std::string::npos);
}

TEST(SchedClusterRuntime, BucketConservationHoldsForAnySeed) {
  std::size_t ladder_activity = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const runtime::WorkloadTrace trace = qos_trace(seed, 30.0, 1.6);
    cluster::ClusterOptions options;
    options.retry.max_attempts = 3;
    options.retry.backoff_s = 1.0;
    options.sched.enabled = true;
    cluster::ClusterRuntime cluster = pressured_cluster(3, options);
    const cluster::ClusterReport report = cluster.run(trace);

    ASSERT_TRUE(report.sched.enabled);
    expect_sched_conservation(report.sched, report.total_arrivals());
    ladder_activity += report.sched.preemptions + report.sched.downgrades;

    std::size_t retries = 0;
    for (const runtime::ClassStats& c : report.classes) {
      SCOPED_TRACE(c.name);
      EXPECT_EQ(c.arrivals,
                c.admitted + c.rejected_final + c.departed_before_admission +
                    c.pending_at_end);
      retries += c.retries_scheduled;
    }
    EXPECT_EQ(report.events_processed,
              trace.events.size() + retries +
                  report.sched.readmission_retries + report.epochs);
    EXPECT_EQ(report.sched.timeline.size(), report.epochs);
  }
  EXPECT_GT(ladder_activity, 0u);
}

TEST(SchedClusterRuntime, ReportsAreByteIdenticalAcrossThreadCounts) {
  const runtime::WorkloadTrace trace = qos_trace(29, 30.0, 1.6);
  cluster::ClusterOptions options;
  options.retry.max_attempts = 3;
  options.retry.backoff_s = 1.0;
  options.sched.enabled = true;

  util::set_thread_count(1);
  const std::string serial = pressured_cluster(3, options).run(trace).to_json();
  util::set_thread_count(4);
  const std::string four = pressured_cluster(3, options).run(trace).to_json();
  util::set_thread_count(8);
  const std::string eight = pressured_cluster(3, options).run(trace).to_json();
  util::set_thread_count(0);

  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, eight);
}

TEST(SchedClusterRuntime, SchedComposesWithSpilloverDisabled) {
  // With spillover off the ladder only ever runs on the preferred cell;
  // the conservation identities must hold regardless.
  const runtime::WorkloadTrace trace = qos_trace(13, 30.0, 1.6);
  cluster::ClusterOptions options;
  options.dispatch.spillover = false;
  options.sched.enabled = true;
  cluster::ClusterRuntime cluster = pressured_cluster(3, options);
  const cluster::ClusterReport report = cluster.run(trace);
  ASSERT_TRUE(report.sched.enabled);
  expect_sched_conservation(report.sched, report.total_arrivals());
}

}  // namespace
}  // namespace odn
