// Observability × determinism: the global registry's snapshot bytes and
// the runtime report bytes must be identical across ODN_THREADS settings,
// and identical with tracing on or off (DESIGN.md §6). This is the ctest
// twin of the traced golden bench checks. The engine's own series are
// exported from the finished report: exported into a fresh registry,
// every series equals its report field, and feature series appear only
// when the feature is on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "util/thread_pool.h"

namespace odn::obs {
namespace {

runtime::WorkloadTrace churn_trace() {
  runtime::WorkloadOptions options;
  options.horizon_s = 25.0;
  options.seed = 21;
  options.arrival_rate_per_s = 0.8;
  options.mean_holding_s = 10.0;
  return runtime::generate_workload(5, options);
}

runtime::ServingRuntime churn_runtime() {
  runtime::RuntimeOptions options;
  options.epoch_s = 10.0;
  options.emulation_window_s = 4.0;
  const core::DotInstance instance = core::make_small_scenario(5);
  return runtime::ServingRuntime(instance.catalog, instance.resources,
                                 instance.radio, instance.tasks, options);
}

// One full churn run against a zeroed global registry; returns the report
// JSON and the registry snapshot.
struct RunResult {
  std::string report;
  std::string metrics;
};

RunResult run_once(const runtime::WorkloadTrace& trace) {
  MetricsRegistry::global().reset_values();
  RunResult result;
  result.report = churn_runtime().run(trace).to_json();
  result.metrics = MetricsRegistry::global().to_prometheus();
  return result;
}

TEST(ObsIntegration, MetricSnapshotsIdenticalAcrossThreadCounts) {
  const runtime::WorkloadTrace trace = churn_trace();

  util::set_thread_count(1);
  const RunResult serial = run_once(trace);
  util::set_thread_count(4);
  const RunResult four = run_once(trace);
  util::set_thread_count(8);
  const RunResult eight = run_once(trace);
  util::set_thread_count(0);

  EXPECT_EQ(serial.report, four.report);
  EXPECT_EQ(serial.report, eight.report);
  // The §6 contract: counter totals and histogram bucket counts are
  // byte-identical for any ODN_THREADS.
  EXPECT_EQ(serial.metrics, four.metrics);
  EXPECT_EQ(serial.metrics, eight.metrics);

  // The run actually exercised the instrumented paths.
  EXPECT_NE(serial.metrics.find("odn_controller_plans_total"),
            std::string::npos);
  EXPECT_NE(serial.metrics.find("odn_runtime_epochs_total 2"),
            std::string::npos);  // horizon 25 s / epoch 10 s -> t = 10, 20
  EXPECT_NE(serial.metrics.find("odn_solver_offloadnn_solves_total"),
            std::string::npos);
}

TEST(ObsIntegration, TracingDoesNotPerturbReportsOrMetrics) {
  const runtime::WorkloadTrace trace = churn_trace();

  reset_tracing();
  const RunResult untraced = run_once(trace);

  set_tracing_enabled(true);
  const RunResult traced = run_once(trace);
  const std::size_t events = buffered_event_count();
  reset_tracing();

  // Tracing on: same report bytes, same metric snapshot, and the trace
  // buffers actually captured the spans.
  EXPECT_EQ(untraced.report, traced.report);
  EXPECT_EQ(untraced.metrics, traced.metrics);
  EXPECT_GT(events, 0u);
}

TEST(ObsIntegration, ReportJsonCarriesNoWallClockFields) {
  const runtime::WorkloadTrace trace = churn_trace();
  const runtime::RuntimeReport report = churn_runtime().run(trace);

  // The wall-clock diagnostics are populated...
  EXPECT_GT(report.run_wall_s, 0.0);
  ASSERT_FALSE(report.timeline.empty());
  for (const cluster::ClusterEpochSnapshot& epoch : report.timeline)
    EXPECT_GE(epoch.measure_wall_s, 0.0);

  // ...but never serialized: the golden byte-compare forbids wall-clock
  // data in the report stream.
  const std::string json = report.to_json();
  EXPECT_EQ(json.find("wall"), std::string::npos);
}

// A 3-cell engine over the mixed catalog on slices small enough that cells
// overload, so admission, retry, migration and the ladder all fire.
cluster::ClusterReport run_cluster(bool features_on, bool* migration_on) {
  const core::DotInstance instance =
      core::make_mixed_scenario(8, core::RequestRate::kMedium);
  edge::EdgeResources base = instance.resources;
  base.memory_capacity_bytes *= 0.5;
  base.compute_capacity_s *= 0.5;
  base.total_rbs = std::max<std::size_t>(1, base.total_rbs / 2);
  cluster::ClusterOptions options;
  options.epoch_s = 5.0;
  options.emulation_window_s = 2.0;
  options.migrate_on_slo = features_on;
  options.sched.enabled = features_on;
  options.batching.enabled = features_on;
  options.alerts.enabled = features_on;
  const double horizon_s = 40.0;
  if (features_on) {
    fault::FaultPlanOptions faults;
    faults.horizon_s = horizon_s;
    faults.seed = 7;
    options.faults = fault::generate_fault_plan(3, faults);
  }
  *migration_on = options.migrate_on_slo;

  runtime::WorkloadOptions workload;
  workload.horizon_s = horizon_s;
  workload.seed = 13;
  workload.arrival_rate_per_s = 2.0;
  workload.mean_holding_s = 20.0;
  cluster::ClusterRuntime runtime(instance.catalog,
                                  cluster::make_cells(3, base, 5),
                                  instance.radio, instance.tasks, options);
  return runtime.run(runtime::generate_workload(8, workload));
}

const std::vector<double> kEpochLatencyBounds{0.02, 0.05, 0.1, 0.2,
                                              0.5,  1.0,  2.0, 5.0};

std::uint64_t value(MetricsRegistry& registry, const std::string& name,
                    const Labels& labels = {}) {
  return registry.counter(name, labels).value();
}

// Runtime series every run exports: five counters per class, the epoch and
// sample totals and the latency histogram.
void expect_runtime_series(MetricsRegistry& registry,
                           const cluster::ClusterReport& report) {
  std::uint64_t samples = 0;
  for (const cluster::ClusterEpochSnapshot& epoch : report.timeline)
    samples += epoch.samples;
  std::vector<std::uint64_t> buckets(kEpochLatencyBounds.size() + 1, 0);
  for (const runtime::ClassStats& stats : report.aggregate_classes()) {
    SCOPED_TRACE(stats.name);
    const Labels labels{{"class", stats.name}};
    EXPECT_EQ(value(registry, "odn_runtime_arrivals_total", labels),
              stats.arrivals);
    EXPECT_EQ(value(registry, "odn_runtime_admissions_total", labels),
              stats.admitted);
    EXPECT_EQ(value(registry, "odn_runtime_rejections_total", labels),
              stats.rejected_final);
    EXPECT_EQ(value(registry, "odn_runtime_retries_total", labels),
              stats.retries_scheduled);
    EXPECT_EQ(value(registry, "odn_runtime_slo_violations_total", labels),
              stats.slo_violations);
    for (const double latency_s : stats.latency_samples_s)
      ++buckets[std::lower_bound(kEpochLatencyBounds.begin(),
                                 kEpochLatencyBounds.end(), latency_s) -
                kEpochLatencyBounds.begin()];
  }
  EXPECT_EQ(value(registry, "odn_runtime_epochs_total"), report.epochs);
  EXPECT_EQ(value(registry, "odn_runtime_emulation_samples_total"), samples);
  const Histogram& latency = registry.histogram(
      "odn_runtime_epoch_latency_seconds", kEpochLatencyBounds);
  EXPECT_EQ(latency.count(), samples);
  for (std::size_t i = 0; i < buckets.size(); ++i)
    EXPECT_EQ(latency.bucket(i), buckets[i]) << "bucket " << i;
}

TEST(ObsIntegration, ExportedSeriesEqualTheirReportFields) {
  MetricsRegistry::global().reset_values();
  bool migration_on = false;
  const cluster::ClusterReport report = run_cluster(true, &migration_on);
  ASSERT_TRUE(report.faults.enabled);
  ASSERT_TRUE(report.sched.enabled);
  ASSERT_TRUE(report.batching.enabled);
  ASSERT_TRUE(report.alerts.enabled);
  ASSERT_TRUE(migration_on);
  // The run fed every feature ledger, so the comparisons below bite.
  EXPECT_GT(report.faults.events_applied, 0u);
  EXPECT_GT(report.faults.displaced, 0u);
  EXPECT_GT(report.sched.probes, 0u);
  EXPECT_GT(report.batching.dispatches, 0u);
  EXPECT_GT(report.migration.attempted, 0u);

  // run() itself published into the process registry, once.
  EXPECT_EQ(MetricsRegistry::global()
                .counter("odn_runtime_epochs_total")
                .value(),
            report.epochs);

  MetricsRegistry registry;
  cluster::export_metrics(report, migration_on, registry);
  // 5 per class + 3 runtime + 4 fault + 5 sched + 2 batch + 3 migration,
  // counted before any lookup below could register a missing series.
  ASSERT_EQ(registry.metric_count(), 5 * report.classes.size() + 17);

  expect_runtime_series(registry, report);
  const fault::FaultStats& f = report.faults;
  EXPECT_EQ(value(registry, "odn_fault_events_total"), f.events_applied);
  EXPECT_EQ(value(registry, "odn_fault_displaced_total"), f.displaced);
  EXPECT_EQ(value(registry, "odn_fault_replacements_total"),
            f.displaced_replaced + f.displaced_readmitted);
  EXPECT_EQ(value(registry, "odn_fault_rejections_total"),
            f.displaced_rejected);
  const sched::SchedStats& s = report.sched;
  EXPECT_EQ(value(registry, "odn_sched_probes_total"), s.probes);
  EXPECT_EQ(value(registry, "odn_sched_preemptions_total"), s.preemptions);
  EXPECT_EQ(value(registry, "odn_sched_downgrades_total"), s.downgrades);
  EXPECT_EQ(value(registry, "odn_sched_readmissions_total"),
            s.preempted_readmitted);
  EXPECT_EQ(value(registry, "odn_sched_ladder_rejections_total"),
            s.ladder_rejected);
  EXPECT_EQ(value(registry, "odn_batch_dispatches_total"),
            report.batching.dispatches);
  EXPECT_EQ(value(registry, "odn_batch_coalesced_requests_total"),
            report.batching.coalesced_requests);
  EXPECT_EQ(value(registry, "odn_cluster_migrations_attempted_total"),
            report.migration.attempted);
  EXPECT_EQ(value(registry, "odn_cluster_migrations_total"),
            report.migration.migrated);
  EXPECT_EQ(value(registry, "odn_cluster_migration_no_target_total"),
            report.migration.no_target);
}

TEST(ObsIntegration, FeatureSeriesAbsentWhenFeaturesOff) {
  bool migration_on = true;
  const cluster::ClusterReport report = run_cluster(false, &migration_on);
  ASSERT_FALSE(migration_on);

  MetricsRegistry registry;
  cluster::export_metrics(report, migration_on, registry);
  const std::string text = registry.to_prometheus();
  for (const char* prefix : {"odn_fault_", "odn_sched_", "odn_batch_",
                             "odn_cluster_migration"})
    EXPECT_EQ(text.find(prefix), std::string::npos) << prefix;
  ASSERT_EQ(registry.metric_count(), 5 * report.classes.size() + 3);
  expect_runtime_series(registry, report);
}

}  // namespace
}  // namespace odn::obs
