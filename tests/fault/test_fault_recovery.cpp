// Fault-injection recovery properties for both runtimes:
//   - conservation: every displaced job ends in exactly one fault-ledger
//     bucket and the ordinary admission lifecycle still balances,
//   - quiescence: after faults recover and the load drains, the ledger
//     returns to the pre-fault fixed point bit-identically (and an
//     identical second run reproduces the report byte-for-byte),
//   - an empty fault plan is a strict no-op on the report bytes,
//   - determinism across thread counts with faults active,
//   - every surviving placement still satisfies the DOT constraints
//     (peak watermarks never exceed capacity, even through crashes).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "fault/fault_plan.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "util/thread_pool.h"

namespace odn::fault {
namespace {

runtime::WorkloadTrace small_trace(std::uint64_t seed = 11,
                                   double horizon = 30.0,
                                   double rate = 0.8) {
  runtime::WorkloadOptions options;
  options.horizon_s = horizon;
  options.seed = seed;
  options.arrival_rate_per_s = rate;
  options.mean_holding_s = 10.0;
  return runtime::generate_workload(5, options);
}

FaultPlan seeded_plan(std::size_t cells, std::uint64_t seed,
                      double horizon = 30.0) {
  FaultPlanOptions options;
  options.seed = seed;
  options.horizon_s = horizon;
  options.mean_outage_s = 6.0;
  options.mean_degradation_s = 8.0;
  options.mean_inflation_s = 8.0;
  options.mean_exhaustion_s = 5.0;
  return generate_fault_plan(cells, options);
}

runtime::ServingRuntime single_runtime(runtime::RuntimeOptions options = {}) {
  const core::DotInstance instance = core::make_small_scenario(5);
  return runtime::ServingRuntime(instance.catalog, instance.resources,
                                 instance.radio, instance.tasks, options);
}

cluster::ClusterRuntime small_cluster(std::size_t cells,
                                      cluster::ClusterOptions options = {}) {
  const core::DotInstance instance = core::make_small_scenario(5);
  edge::EdgeResources base = instance.resources;
  base.memory_capacity_bytes *= 0.6;
  base.compute_capacity_s *= 0.6;
  base.total_rbs = std::max<std::size_t>(1, base.total_rbs / 2);
  return cluster::ClusterRuntime(instance.catalog,
                                 cluster::make_cells(cells, base, 5),
                                 instance.radio, instance.tasks, options);
}

void expect_fault_conservation(const FaultStats& faults) {
  // Every displaced job lands in exactly one fault-ledger bucket.
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

TEST(FaultRecoveryRuntime, ConservationAcrossFaultSeeds) {
  const runtime::WorkloadTrace trace = small_trace(11, 30.0, 1.0);
  std::size_t displaced_total = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "fault seed " << seed);
    runtime::RuntimeOptions options;
    options.retry.max_attempts = 3;
    options.retry.backoff_s = 1.0;
    options.faults = seeded_plan(1, seed);
    runtime::ServingRuntime runtime = single_runtime(options);
    const runtime::RuntimeReport report = runtime.run(trace);

    ASSERT_TRUE(report.faults.enabled);
    EXPECT_GT(report.faults.events_applied, 0u);
    expect_fault_conservation(report.faults);
    displaced_total += report.faults.displaced;

    std::size_t retries = 0;
    for (const runtime::ClassStats& c : report.classes) {
      SCOPED_TRACE(c.name);
      // Fault accounting never leaks into the admission lifecycle.
      EXPECT_EQ(c.arrivals,
                c.admitted + c.rejected_final + c.departed_before_admission +
                    c.pending_at_end);
      EXPECT_EQ(c.admitted, c.admitted_first_try + c.admitted_after_retry);
      retries += c.retries_scheduled;
    }
    // The loop processes every trace event, every admission retry, every
    // readmission retry and every epoch exactly once.
    EXPECT_EQ(report.events_processed,
              trace.events.size() + retries +
                  report.faults.readmission_retries + report.epochs);

    // Surviving placements honor the capacity envelope throughout.
    const runtime::ResourceWatermarks& watermarks =
        report.cells.at(0).watermarks;
    EXPECT_LE(watermarks.peak_memory_bytes,
              watermarks.memory_capacity_bytes * (1.0 + 1e-9));
    EXPECT_LE(watermarks.peak_compute_s,
              watermarks.compute_capacity_s * (1.0 + 1e-9));
    EXPECT_LE(watermarks.peak_rbs, watermarks.rb_capacity);
  }
  // The sweep must actually exercise displacement, or the properties
  // above are vacuous.
  EXPECT_GT(displaced_total, 0u);
}

TEST(FaultRecoveryRuntime, QuiescenceLedgerReturnsToFixedPoint) {
  // Manual trace: three jobs arrive, a crash displaces the survivors at
  // the first epoch, everything departs well before the horizon. After
  // the dust settles the controller ledger must be exactly zero — the
  // recovery path releases and re-commits bit-exactly.
  runtime::WorkloadTrace trace;
  trace.name = "drain";
  trace.horizon_s = 30.0;
  trace.template_count = 5;
  trace.events = {
      {1.0, runtime::WorkloadEventKind::kArrival, 0, 0},
      {2.0, runtime::WorkloadEventKind::kArrival, 1, 2},
      {3.0, runtime::WorkloadEventKind::kArrival, 2, 4},
      {16.0, runtime::WorkloadEventKind::kDeparture, 1, 2},
      {18.0, runtime::WorkloadEventKind::kDeparture, 0, 0},
      {19.0, runtime::WorkloadEventKind::kDeparture, 2, 4},
  };

  runtime::RuntimeOptions options;
  options.epoch_s = 5.0;
  options.faults.name = "crash-window";
  options.faults.horizon_s = 30.0;
  options.faults.cell_count = 1;
  options.faults.events = {
      {5.0, FaultEventKind::kCellCrash, 0, 1.0},
      {10.0, FaultEventKind::kCellRecover, 0, 1.0},
  };

  runtime::ServingRuntime runtime = single_runtime(options);
  const runtime::RuntimeReport report = runtime.run(trace);
  expect_fault_conservation(report.faults);
  EXPECT_EQ(report.active_at_end, 0u);
  EXPECT_TRUE(runtime.controller().active_tasks().empty());
  EXPECT_TRUE(runtime.controller().deployed_blocks().empty());
  EXPECT_EQ(runtime.controller().ledger().memory_used_bytes(), 0.0);
  EXPECT_EQ(runtime.controller().ledger().compute_used_s(), 0.0);
  EXPECT_EQ(runtime.controller().ledger().rbs_used(), 0u);
}

TEST(FaultRecoveryRuntime, FaultedRunLeavesNoResidue) {
  // A faulted run (including an unrecovered radio derate at the horizon)
  // must leave the runtime at the pre-fault fixed point: an identical
  // second run reproduces the report byte-for-byte.
  const runtime::WorkloadTrace trace = small_trace(13, 30.0, 1.0);
  runtime::RuntimeOptions options;
  options.faults.name = "derate-tail";
  options.faults.horizon_s = 30.0;
  options.faults.cell_count = 1;
  options.faults.events = {
      {5.0, FaultEventKind::kRadioDegrade, 0, 0.5},
      // No restore: the derate persists to the horizon.
  };
  runtime::ServingRuntime runtime = single_runtime(options);
  const std::string first = runtime.run(trace).to_json();
  const std::string second = runtime.run(trace).to_json();
  EXPECT_EQ(first, second);
}

TEST(FaultRecoveryRuntime, EmptyPlanIsStrictNoOp) {
  const runtime::WorkloadTrace trace = small_trace(17, 30.0);
  runtime::RuntimeOptions plain;
  runtime::RuntimeOptions with_empty_plan;
  with_empty_plan.faults.name = "renamed-but-empty";
  with_empty_plan.faults.horizon_s = 30.0;
  const std::string a = single_runtime(plain).run(trace).to_json();
  const std::string b = single_runtime(with_empty_plan).run(trace).to_json();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("\"faults\""), std::string::npos);
}

TEST(FaultRecoveryRuntime, DeterministicAcrossThreadCounts) {
  const runtime::WorkloadTrace trace = small_trace(21, 30.0, 1.0);
  runtime::RuntimeOptions options;
  options.faults = seeded_plan(1, 3);

  util::set_thread_count(1);
  const std::string serial = single_runtime(options).run(trace).to_json();
  util::set_thread_count(4);
  const std::string four = single_runtime(options).run(trace).to_json();
  util::set_thread_count(8);
  const std::string eight = single_runtime(options).run(trace).to_json();
  util::set_thread_count(0);

  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, eight);
}

TEST(FaultRecoveryCluster, ConservationAcrossFaultSeeds) {
  const runtime::WorkloadTrace trace = small_trace(11, 30.0, 1.2);
  std::size_t displaced_total = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "fault seed " << seed);
    cluster::ClusterOptions options;
    options.retry.max_attempts = 3;
    options.retry.backoff_s = 1.0;
    options.faults = seeded_plan(3, seed);
    cluster::ClusterRuntime cluster = small_cluster(3, options);
    const cluster::ClusterReport report = cluster.run(trace);

    ASSERT_TRUE(report.faults.enabled);
    EXPECT_GT(report.faults.events_applied, 0u);
    expect_fault_conservation(report.faults);
    displaced_total += report.faults.displaced;

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
                  report.faults.readmission_retries + report.epochs);

    // Per-cell ledgers never exceed their envelopes, crashes included.
    for (const cluster::CellReport& cell : report.cells) {
      SCOPED_TRACE(cell.name);
      EXPECT_LE(cell.watermarks.peak_memory_bytes,
                cell.watermarks.memory_capacity_bytes * (1.0 + 1e-9));
      EXPECT_LE(cell.watermarks.peak_compute_s,
                cell.watermarks.compute_capacity_s * (1.0 + 1e-9));
      EXPECT_LE(cell.watermarks.peak_rbs, cell.watermarks.rb_capacity);
    }
  }
  EXPECT_GT(displaced_total, 0u);
}

TEST(FaultRecoveryCluster, CrashDisplacesOntoSurvivingCells) {
  // A mid-run crash with no recovery: the crashed cell must end the run
  // empty and every displaced job must be accounted for in the ledger.
  cluster::ClusterOptions options;
  options.faults.name = "one-crash";
  options.faults.horizon_s = 30.0;
  options.faults.cell_count = 3;
  options.faults.events = {{10.0, FaultEventKind::kCellCrash, 1, 1.0}};
  cluster::ClusterRuntime cluster = small_cluster(3, options);
  const cluster::ClusterReport report =
      cluster.run(small_trace(11, 30.0, 1.2));

  expect_fault_conservation(report.faults);
  EXPECT_EQ(report.faults.cell_crashes, 1u);
  EXPECT_EQ(report.cells[1].active_at_end, 0u);
  EXPECT_EQ(cluster.dispatcher().cell(1).controller().active_tasks().size(),
            0u);
  EXPECT_FALSE(cluster.dispatcher().accepting(1));
}

TEST(FaultRecoveryCluster, CrashAndRecoveryOnOneBoundaryReadmitAtOnce) {
  // Cell 0 crashes at t=12 and recovers at t=15, so both events apply as
  // one batch at the t=20 epoch boundary. Recovery reads the state after
  // the whole batch: cell 0 is up again, so every displaced job is
  // re-placed on it at t=20 (first attempt, no backoff) — for a one-cell
  // deployment and for a cluster whose first_fit choice is cell 0.
  runtime::WorkloadTrace trace;
  trace.name = "three-long-jobs";
  trace.horizon_s = 30.0;
  trace.template_count = 5;
  trace.events = {
      {1.0, runtime::WorkloadEventKind::kArrival, 0, 0},
      {2.0, runtime::WorkloadEventKind::kArrival, 1, 2},
      {3.0, runtime::WorkloadEventKind::kArrival, 2, 4},
  };
  for (const std::size_t cells : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(::testing::Message() << cells << " cells");
    std::istringstream text(
        "ODN-FAULTS 1\n"
        "name crash-recover-one-boundary\n"
        "horizon 30\n"
        "cells " + std::to_string(cells) + "\n"
        "events 2\n"
        "event 12 crash 0 1\n"
        "event 15 recover 0 1\n");
    cluster::ClusterOptions options;
    options.epoch_s = 10.0;
    options.dispatch.policy = cluster::PlacementPolicy::kFirstFit;
    options.migrate_on_slo = false;  // keep every job on cell 0
    options.faults = read_fault_plan(text);
    cluster::ClusterRuntime cluster = small_cluster(cells, options);
    const cluster::ClusterReport report = cluster.run(trace);

    expect_fault_conservation(report.faults);
    EXPECT_EQ(report.faults.cell_crashes, 1u);
    EXPECT_EQ(report.faults.cell_recoveries, 1u);
    EXPECT_EQ(report.total_admitted(), 3u);
    EXPECT_EQ(report.faults.displaced, 3u);
    EXPECT_EQ(report.faults.displaced_replaced, 3u);
    EXPECT_EQ(report.faults.readmission_retries, 0u);
    EXPECT_TRUE(cluster.dispatcher().accepting(0));
    EXPECT_EQ(report.cells[0].active_at_end, 3u);
  }
}

TEST(FaultRecoveryCluster, EmptyPlanIsStrictNoOp) {
  const runtime::WorkloadTrace trace = small_trace(17, 30.0);
  const std::string a =
      small_cluster(3, cluster::ClusterOptions{}).run(trace).to_json();
  cluster::ClusterOptions with_empty_plan;
  with_empty_plan.faults.name = "renamed-but-empty";
  with_empty_plan.faults.horizon_s = 30.0;
  with_empty_plan.faults.cell_count = 3;
  const std::string b = small_cluster(3, with_empty_plan).run(trace).to_json();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("\"faults\""), std::string::npos);
}

TEST(FaultRecoveryCluster, FaultedRunLeavesNoResidue) {
  const runtime::WorkloadTrace trace = small_trace(13, 30.0, 1.2);
  cluster::ClusterOptions options;
  options.faults = seeded_plan(3, 5);
  cluster::ClusterRuntime cluster = small_cluster(3, options);
  const std::string first = cluster.run(trace).to_json();
  const std::string second = cluster.run(trace).to_json();
  EXPECT_EQ(first, second);
}

TEST(FaultRecoveryCluster, DeterministicAcrossThreadCounts) {
  const runtime::WorkloadTrace trace = small_trace(21, 30.0, 1.2);
  cluster::ClusterOptions options;
  options.dispatch.policy = cluster::PlacementPolicy::kCostProbe;
  options.dispatch.parallel_probe = true;
  options.faults = seeded_plan(3, 3);

  util::set_thread_count(1);
  const std::string serial = small_cluster(3, options).run(trace).to_json();
  util::set_thread_count(8);
  const std::string eight = small_cluster(3, options).run(trace).to_json();
  util::set_thread_count(0);
  EXPECT_EQ(serial, eight);
}

TEST(FaultRecoveryCluster, PlanCellCountMustMatchCluster) {
  cluster::ClusterOptions options;
  options.faults = seeded_plan(2, 1);  // 2-cell plan, 3-cell cluster
  EXPECT_THROW(small_cluster(3, options), std::invalid_argument);
}

}  // namespace
}  // namespace odn::fault
