// ClusterRuntime: cluster-wide conservation invariants, per-cell ledger
// safety under migration, single-cell equivalence with ServingRuntime and
// the determinism contract (byte-identical JSON for any thread count and
// for serial vs parallel cost_probe).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "util/thread_pool.h"

namespace odn::cluster {
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

// Small-scenario cluster: N seeded heterogeneous slices of roughly half
// the single-server envelope each, so cells overload individually.
ClusterRuntime small_cluster(std::size_t cells, ClusterOptions options = {},
                             std::uint64_t cell_seed = 5) {
  const core::DotInstance instance = core::make_small_scenario(5);
  edge::EdgeResources base = instance.resources;
  base.memory_capacity_bytes *= 0.6;
  base.compute_capacity_s *= 0.6;
  base.total_rbs = std::max<std::size_t>(1, base.total_rbs / 2);
  return ClusterRuntime(instance.catalog,
                        make_cells(cells, base, cell_seed), instance.radio,
                        instance.tasks, options);
}

TEST(ClusterRuntime, ConservationEveryArrivalAccountedOnce) {
  const runtime::WorkloadTrace trace = small_trace();
  ClusterRuntime cluster = small_cluster(3);
  const ClusterReport report = cluster.run(trace);

  // Wall-clock diagnostics are populated but stay out of the serialized
  // report (the golden byte-compare forbids wall-clock fields).
  EXPECT_GT(report.run_wall_s, 0.0);
  for (const ClusterEpochSnapshot& epoch : report.timeline)
    EXPECT_GE(epoch.measure_wall_s, 0.0);
  EXPECT_EQ(report.to_json().find("wall"), std::string::npos);

  std::size_t arrivals = 0;
  std::size_t retries = 0;
  for (const runtime::ClassStats& c : report.classes) {
    SCOPED_TRACE(c.name);
    // Every arriving job lands in exactly one terminal bucket.
    EXPECT_EQ(c.arrivals, c.admitted + c.rejected_final +
                              c.departed_before_admission + c.pending_at_end);
    EXPECT_EQ(c.admitted, c.admitted_first_try + c.admitted_after_retry);
    arrivals += c.arrivals;
    retries += c.retries_scheduled;
  }
  EXPECT_EQ(arrivals, trace.arrival_count());
  EXPECT_EQ(report.events_processed,
            trace.events.size() + retries + report.epochs);

  // Per-cell admissions sum to the cluster-wide count, and migration flows
  // balance (every move leaves one cell and enters another).
  std::size_t placed = 0;
  std::size_t migrations_in = 0;
  std::size_t migrations_out = 0;
  std::size_t departures = 0;
  for (const CellReport& cell : report.cells) {
    placed += cell.admitted_preferred + cell.admitted_spillover;
    migrations_in += cell.migrations_in;
    migrations_out += cell.migrations_out;
    for (const runtime::ClassStats& c : cell.classes)
      departures += c.departures;
  }
  EXPECT_EQ(placed, report.total_admitted());
  EXPECT_EQ(migrations_in, report.migration.migrated);
  EXPECT_EQ(migrations_out, report.migration.migrated);
  EXPECT_LE(report.migration.migrated + report.migration.no_target,
            report.migration.attempted);
  EXPECT_LE(departures + report.active_at_end, report.total_admitted());

  // Active jobs at the horizon match the dispatcher's live set.
  EXPECT_EQ(report.active_at_end, cluster.dispatcher().total_active());
  std::size_t active_cells = 0;
  for (const CellReport& cell : report.cells)
    active_cells += cell.active_at_end;
  EXPECT_EQ(active_cells, report.active_at_end);
}

TEST(ClusterRuntime, MigrationNeverViolatesCellLedgers) {
  // Overloaded cells + long holding times force migrations.
  ClusterOptions options;
  options.migration_batch = 3;
  ClusterRuntime cluster = small_cluster(3, options);
  const ClusterReport report = cluster.run(small_trace(3, 40.0, 1.2));

  EXPECT_GT(report.migration.attempted, 0u);
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const CellReport& cell = report.cells[i];
    SCOPED_TRACE(cell.name);
    // Watermarks (observed after every admission, release and migration)
    // never exceed the cell's capacity.
    EXPECT_LE(cell.watermarks.peak_memory_bytes,
              cell.watermarks.memory_capacity_bytes + 1e-9);
    EXPECT_LE(cell.watermarks.peak_compute_s,
              cell.watermarks.compute_capacity_s + 1e-9);
    EXPECT_LE(cell.watermarks.peak_rbs, cell.watermarks.rb_capacity);
    // And the final ledgers are consistent too.
    const edge::ResourceLedger& ledger =
        cluster.dispatcher().cell(i).controller().ledger();
    EXPECT_LE(ledger.memory_used_bytes(),
              cell.watermarks.memory_capacity_bytes + 1e-9);
    EXPECT_LE(ledger.compute_used_s(),
              cell.watermarks.compute_capacity_s + 1e-9);
    EXPECT_LE(ledger.rbs_used(), cell.watermarks.rb_capacity);
  }
}

TEST(ClusterRuntime, SingleCellFirstFitMatchesServingRuntime) {
  // One cell with the full envelope, configured the way ServingRuntime
  // configures its engine (first_fit, shared plan cache sized from the
  // controller's cache options), is exactly the single-server serving
  // runtime: lifecycle counters and measurement sample counts agree class
  // by class, and the single-server schema writes the same bytes.
  const core::DotInstance instance = core::make_small_scenario(5);
  const runtime::WorkloadTrace trace = small_trace(21, 30.0);

  runtime::RuntimeOptions single_options;
  runtime::ServingRuntime single(instance.catalog, instance.resources,
                                 instance.radio, instance.tasks,
                                 single_options);
  const runtime::RuntimeReport single_report = single.run(trace);

  ClusterOptions cluster_options;
  static_cast<runtime::RuntimeOptions&>(cluster_options) = single_options;
  cluster_options.dispatch.policy = PlacementPolicy::kFirstFit;
  cluster_options.dispatch.plan_cache =
      single_options.controller.cache.plan_cache;
  cluster_options.dispatch.plan_cache_capacity =
      single_options.controller.cache.plan_capacity;
  ClusterRuntime cluster(
      instance.catalog, {CellSpec{"cell-0", instance.resources}},
      instance.radio, instance.tasks, cluster_options);
  const ClusterReport cluster_report = cluster.run(trace);

  const auto aggregate = cluster_report.aggregate_classes();
  const auto single_aggregate = single_report.aggregate_classes();
  ASSERT_EQ(aggregate.size(), single_aggregate.size());
  for (std::size_t c = 0; c < aggregate.size(); ++c) {
    SCOPED_TRACE(aggregate[c].name);
    const runtime::ClassStats& ours = aggregate[c];
    const runtime::ClassStats& theirs = single_aggregate[c];
    EXPECT_EQ(ours.arrivals, theirs.arrivals);
    EXPECT_EQ(ours.admitted, theirs.admitted);
    EXPECT_EQ(ours.admitted_first_try, theirs.admitted_first_try);
    EXPECT_EQ(ours.admitted_after_retry, theirs.admitted_after_retry);
    EXPECT_EQ(ours.rejected_final, theirs.rejected_final);
    EXPECT_EQ(ours.departures, theirs.departures);
    EXPECT_EQ(ours.pending_at_end, theirs.pending_at_end);
    EXPECT_EQ(ours.latency_samples_s.size(),
              theirs.latency_samples_s.size());
    EXPECT_EQ(ours.slo_violations, theirs.slo_violations);
  }
  EXPECT_EQ(runtime::RuntimeReport{cluster_report}.to_json(),
            single_report.to_json());
}

// The single-server schema is defined only for a one-cell report whose
// every epoch holds exactly one cell sample.
TEST(ClusterRuntime, SingleServerSchemaRejectsZeroOrTwoCells) {
  for (const std::size_t cells : {0u, 2u}) {
    SCOPED_TRACE(cells);
    runtime::RuntimeReport report;
    report.cells.resize(cells);
    std::ostringstream out;
    EXPECT_THROW(write_single_server_json(out, report), std::logic_error);
    EXPECT_THROW((void)report.to_json(), std::logic_error);
  }
}

TEST(ClusterRuntime, SingleServerSchemaRejectsEpochWithTwoSamples) {
  runtime::RuntimeReport report;
  report.cells.resize(1);
  report.timeline.resize(2);
  report.timeline[0].cells.resize(1);
  report.timeline[1].cells.resize(2);
  EXPECT_THROW((void)report.to_json(), std::logic_error);
  report.timeline[1].cells.resize(1);
  EXPECT_NO_THROW((void)report.to_json());
}

TEST(ClusterRuntime, FullDepartureReturnsEveryCellToZero) {
  runtime::WorkloadTrace trace;
  trace.name = "manual";
  trace.horizon_s = 20.0;
  trace.template_count = 5;
  trace.events = {
      {1.0, runtime::WorkloadEventKind::kArrival, 0, 0},
      {2.0, runtime::WorkloadEventKind::kArrival, 1, 2},
      {3.0, runtime::WorkloadEventKind::kArrival, 2, 4},
      {12.0, runtime::WorkloadEventKind::kDeparture, 1, 2},
      {15.0, runtime::WorkloadEventKind::kDeparture, 0, 0},
      {18.0, runtime::WorkloadEventKind::kDeparture, 2, 4},
  };
  ClusterRuntime cluster = small_cluster(2);
  const ClusterReport report = cluster.run(trace);

  EXPECT_EQ(report.total_arrivals(), 3u);
  EXPECT_EQ(report.active_at_end, 0u);
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const edge::ResourceLedger& ledger =
        cluster.dispatcher().cell(i).controller().ledger();
    EXPECT_EQ(ledger.memory_used_bytes(), 0.0);
    EXPECT_EQ(ledger.compute_used_s(), 0.0);
    EXPECT_EQ(ledger.rbs_used(), 0u);
    EXPECT_EQ(report.cells[i].active_at_end, 0u);
    EXPECT_EQ(report.cells[i].deployed_blocks_at_end, 0u);
  }
}

TEST(ClusterRuntime, DeterministicAcrossThreadCountsAllPolicies) {
  const runtime::WorkloadTrace trace = small_trace(21, 25.0, 1.0);

  for (const PlacementPolicy policy :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kCostProbe}) {
    SCOPED_TRACE(placement_policy_name(policy));
    ClusterOptions options;
    options.dispatch.policy = policy;

    util::set_thread_count(1);
    options.dispatch.parallel_probe = false;
    const std::string serial = small_cluster(3, options).run(trace).to_json();

    util::set_thread_count(4);
    options.dispatch.parallel_probe = true;
    const std::string four = small_cluster(3, options).run(trace).to_json();

    util::set_thread_count(8);
    const std::string eight = small_cluster(3, options).run(trace).to_json();
    util::set_thread_count(0);

    EXPECT_EQ(serial, four);
    EXPECT_EQ(serial, eight);
  }
}

TEST(ClusterRuntime, RejectsBadOptionsAndMismatchedTrace) {
  {
    ClusterOptions options;
    options.class_names = {"only-one"};
    EXPECT_THROW(small_cluster(2, options), std::invalid_argument);
  }
  {
    ClusterOptions options;
    options.epoch_s = 5.0;
    options.emulation_window_s = 0.0;
    EXPECT_THROW(small_cluster(2, options), std::invalid_argument);
  }
  {
    ClusterOptions options;
    options.migrate_on_slo = true;
    options.migration_batch = 0;
    EXPECT_THROW(small_cluster(2, options), std::invalid_argument);
  }
  {
    runtime::WorkloadOptions workload;
    workload.horizon_s = 10.0;
    const runtime::WorkloadTrace trace =
        runtime::generate_workload(3, workload);  // 3 != 5 templates
    ClusterRuntime cluster = small_cluster(2);
    EXPECT_THROW(cluster.run(trace), std::invalid_argument);
  }
}

}  // namespace
}  // namespace odn::cluster
