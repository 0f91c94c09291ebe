// Scheduling × fault-injection composition (ISSUE satellite): a cell
// crash landing in the middle of preemption churn must keep BOTH ledgers
// balanced — the FaultStats displacement conservation AND the sched
// subsystem's bucket/preemption identities — while the runtimes'
// internal no-orphaned-resources check (controller ledger re-derived
// from the served book at every epoch boundary and after every ladder
// application) holds throughout; a violation aborts the run, so a
// passing report is the proof.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "cluster/cell.h"
#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "fault/fault_plan.h"
#include "fault/fault_stats.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "sched/sched_stats.h"
#include "util/thread_pool.h"

namespace odn {
namespace {

runtime::WorkloadTrace qos_trace(std::uint64_t seed, double horizon = 30.0,
                                 double rate = 1.4) {
  runtime::WorkloadOptions options;
  options.horizon_s = horizon;
  options.seed = seed;
  options.arrival_rate_per_s = rate;
  options.mean_holding_s = 12.0;
  options.qos.enabled = true;
  options.qos.deadline_tightness = 0.8;
  return runtime::generate_workload(5, options);
}

fault::FaultPlan seeded_plan(std::size_t cells, std::uint64_t seed,
                             double horizon = 30.0) {
  fault::FaultPlanOptions options;
  options.seed = seed;
  options.horizon_s = horizon;
  options.mean_outage_s = 6.0;
  options.mean_degradation_s = 8.0;
  options.mean_inflation_s = 8.0;
  options.mean_exhaustion_s = 5.0;
  return fault::generate_fault_plan(cells, options);
}

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

void expect_fault_conservation(const fault::FaultStats& faults) {
  EXPECT_EQ(faults.displaced,
            faults.displaced_replaced + faults.displaced_readmitted +
                faults.displaced_rejected + faults.displaced_departed +
                faults.displaced_pending_at_end);
  EXPECT_EQ(faults.events_applied,
            faults.cell_crashes + faults.cell_recoveries +
                faults.radio_degradations + faults.radio_restores +
                faults.latency_inflations + faults.latency_restores +
                faults.budget_exhaustions + faults.budget_restores);
}

void expect_sched_conservation(const sched::SchedStats& sched,
                               std::size_t arrivals) {
  EXPECT_EQ(sched.met + sched.missed + sched.preempted + sched.downgraded +
                sched.rejected,
            arrivals);
  EXPECT_EQ(sched.preemptions,
            sched.preempted_readmitted + sched.preempted_rejected +
                sched.preempted_departed + sched.preempted_pending_at_end);
}

TEST(SchedFaultServing, CrashMidPreemptionEpochKeepsBothLedgersBalanced) {
  // A hand-placed crash window straddling the busiest epochs: preemption
  // churn before, displacement at the boundary, readmission contention
  // after recovery.
  const runtime::WorkloadTrace trace = qos_trace(11);
  runtime::RuntimeOptions options;
  options.epoch_s = 5.0;
  options.retry.max_attempts = 3;
  options.retry.backoff_s = 1.0;
  options.sched.enabled = true;
  options.faults.name = "crash-mid-churn";
  options.faults.horizon_s = 30.0;
  options.faults.cell_count = 1;
  options.faults.events = {
      {10.0, fault::FaultEventKind::kCellCrash, 0, 1.0},
      {15.0, fault::FaultEventKind::kCellRecover, 0, 1.0},
  };

  runtime::ServingRuntime runtime = pressured_runtime(options);
  const runtime::RuntimeReport report = runtime.run(trace);

  ASSERT_TRUE(report.faults.enabled);
  ASSERT_TRUE(report.sched.enabled);
  EXPECT_EQ(report.faults.cell_crashes, 1u);
  expect_fault_conservation(report.faults);
  expect_sched_conservation(report.sched, report.total_arrivals());
  // Every fault displacement is mirrored into the sched accounting (the
  // deadline history records the eviction), and only those — ladder
  // preemptions are counted separately.
  EXPECT_EQ(report.sched.fault_displacements, report.faults.displaced);

  std::size_t retries = 0;
  for (const runtime::ClassStats& c : report.classes)
    retries += c.retries_scheduled;
  EXPECT_EQ(report.events_processed,
            trace.events.size() + retries + report.faults.readmission_retries +
                report.sched.readmission_retries + report.epochs);
}

TEST(SchedFaultServing, ConservationAcrossFaultSeeds) {
  std::size_t displaced_total = 0;
  std::size_t ladder_activity = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "fault seed " << seed);
    const runtime::WorkloadTrace trace = qos_trace(11);
    runtime::RuntimeOptions options;
    options.retry.max_attempts = 3;
    options.retry.backoff_s = 1.0;
    options.sched.enabled = true;
    options.faults = seeded_plan(1, seed);

    runtime::ServingRuntime runtime = pressured_runtime(options);
    const runtime::RuntimeReport report = runtime.run(trace);
    ASSERT_TRUE(report.faults.enabled);
    ASSERT_TRUE(report.sched.enabled);
    expect_fault_conservation(report.faults);
    expect_sched_conservation(report.sched, report.total_arrivals());
    EXPECT_EQ(report.sched.fault_displacements, report.faults.displaced);
    displaced_total += report.faults.displaced;
    ladder_activity += report.sched.preemptions + report.sched.downgrades;
  }
  // The sweep must exercise both subsystems at once, or the composition
  // claim is vacuous.
  EXPECT_GT(displaced_total, 0u);
  EXPECT_GT(ladder_activity, 0u);
}

TEST(SchedFaultServing, FaultedSchedRunIsDeterministicAcrossThreadCounts) {
  const runtime::WorkloadTrace trace = qos_trace(21);
  runtime::RuntimeOptions options;
  options.sched.enabled = true;
  options.faults = seeded_plan(1, 3);

  util::set_thread_count(1);
  const std::string serial = pressured_runtime(options).run(trace).to_json();
  util::set_thread_count(8);
  const std::string eight = pressured_runtime(options).run(trace).to_json();
  util::set_thread_count(0);
  EXPECT_EQ(serial, eight);
}

TEST(SchedFaultCluster, CrashMidPreemptionEpochKeepsBothLedgersBalanced) {
  // Multi-cell composition: ladder admissions on spillover cells, a crash
  // displacing one cell's book, migration and readmission all in flight.
  // The per-cell no-orphaned-resources check runs at every epoch
  // boundary, so this completing at all is the invariant half of the
  // satellite; the assertions below are the ledger half.
  std::size_t displaced_total = 0;
  std::size_t ladder_activity = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "fault seed " << seed);
    const runtime::WorkloadTrace trace = qos_trace(11, 30.0, 1.6);
    cluster::ClusterOptions options;
    options.retry.max_attempts = 3;
    options.retry.backoff_s = 1.0;
    options.sched.enabled = true;
    options.faults = seeded_plan(3, seed);

    cluster::ClusterRuntime cluster = pressured_cluster(3, options);
    const cluster::ClusterReport report = cluster.run(trace);
    ASSERT_TRUE(report.faults.enabled);
    ASSERT_TRUE(report.sched.enabled);
    expect_fault_conservation(report.faults);
    expect_sched_conservation(report.sched, report.total_arrivals());
    EXPECT_EQ(report.sched.fault_displacements, report.faults.displaced);
    displaced_total += report.faults.displaced;
    ladder_activity += report.sched.preemptions + report.sched.downgrades;

    std::size_t retries = 0;
    for (const runtime::ClassStats& c : report.classes)
      retries += c.retries_scheduled;
    EXPECT_EQ(report.events_processed,
              trace.events.size() + retries +
                  report.faults.readmission_retries +
                  report.sched.readmission_retries + report.epochs);
  }
  EXPECT_GT(displaced_total, 0u);
  EXPECT_GT(ladder_activity, 0u);
}

TEST(SchedFaultCluster, FaultedSchedRunIsDeterministicAcrossThreadCounts) {
  const runtime::WorkloadTrace trace = qos_trace(21, 30.0, 1.6);
  cluster::ClusterOptions options;
  options.sched.enabled = true;
  options.faults = seeded_plan(3, 3);

  util::set_thread_count(1);
  const std::string serial =
      pressured_cluster(3, options).run(trace).to_json();
  util::set_thread_count(8);
  const std::string eight =
      pressured_cluster(3, options).run(trace).to_json();
  util::set_thread_count(0);
  EXPECT_EQ(serial, eight);
}

}  // namespace
}  // namespace odn
