// ServingRuntime + ClusterRuntime over the heterogeneous model catalog:
// batching stats surface in the report (and its JSON block appears only
// when enabled), probe scaling reaches the admission templates, the
// determinism contract holds with batching on, and a mixed ResNet +
// transformer catalog serves through both runtimes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "util/thread_pool.h"

namespace odn::runtime {
namespace {

WorkloadTrace mixed_trace(std::size_t templates, std::uint64_t seed = 11,
                          double horizon = 30.0) {
  WorkloadOptions options;
  options.horizon_s = horizon;
  options.seed = seed;
  options.arrival_rate_per_s = 1.0;
  options.mean_holding_s = 15.0;
  return generate_workload(templates, options);
}

ServingRuntime mixed_runtime(const core::DotInstance& instance,
                             RuntimeOptions options = {}) {
  return ServingRuntime(instance.catalog, instance.resources, instance.radio,
                        instance.tasks, options);
}

std::string report_json(const RuntimeReport& report) {
  std::stringstream out;
  report.write_json(out);
  return out.str();
}

TEST(BatchingRuntime, DisabledReportOmitsBatchingBlock) {
  const core::DotInstance instance =
      core::make_mixed_scenario(8, core::RequestRate::kMedium);
  ServingRuntime runtime = mixed_runtime(instance);
  const RuntimeReport report = runtime.run(mixed_trace(8));
  EXPECT_FALSE(report.batching.enabled);
  EXPECT_EQ(report.batching.dispatches, 0u);
  EXPECT_EQ(report_json(report).find("\"batching\""), std::string::npos);
}

TEST(BatchingRuntime, EnabledReportCarriesBatchingStats) {
  const core::DotInstance instance =
      core::make_mixed_scenario(8, core::RequestRate::kMedium);
  RuntimeOptions options;
  options.batching.enabled = true;
  ServingRuntime runtime = mixed_runtime(instance, options);
  const RuntimeReport report = runtime.run(mixed_trace(8));

  EXPECT_TRUE(report.batching.enabled);
  // Epoch emulations dispatched batches and actually coalesced work.
  EXPECT_GT(report.batching.dispatches, 0u);
  EXPECT_GT(report.batching.coalesced_requests, 0u);
  EXPECT_GT(report.batching.max_batch, 1u);
  // The admission probe scaled the template costs below the single-request
  // baseline (medium rate x probe window amortizes >1 request).
  EXPECT_GT(report.batching.probe_scale_min, 0.0);
  EXPECT_LT(report.batching.probe_scale_min, 1.0);

  const std::string json = report_json(report);
  EXPECT_NE(json.find("\"batching\""), std::string::npos);
  EXPECT_NE(json.find("\"coalesced_requests\""), std::string::npos);
}

TEST(BatchingRuntime, ValidateRejectsBadBatchingOptions) {
  const core::DotInstance instance =
      core::make_mixed_scenario(4, core::RequestRate::kMedium);
  RuntimeOptions options;
  options.batching.enabled = true;
  options.batching.cost.marginal_fraction = 2.0;
  EXPECT_THROW(mixed_runtime(instance, options), std::invalid_argument);
}

TEST(BatchingRuntime, ByteIdenticalReportsAcrossThreadCounts) {
  const core::DotInstance instance =
      core::make_mixed_scenario(8, core::RequestRate::kMedium);
  RuntimeOptions options;
  options.batching.enabled = true;

  util::set_thread_count(1);
  ServingRuntime serial_runtime = mixed_runtime(instance, options);
  const std::string serial = report_json(serial_runtime.run(mixed_trace(8)));
  util::set_thread_count(8);
  ServingRuntime parallel_runtime = mixed_runtime(instance, options);
  const std::string parallel =
      report_json(parallel_runtime.run(mixed_trace(8)));
  util::set_thread_count(0);
  EXPECT_EQ(serial, parallel);
}

TEST(BatchingRuntime, MixedCatalogServesThroughCluster) {
  const core::DotInstance instance =
      core::make_mixed_scenario(8, core::RequestRate::kMedium);
  edge::EdgeResources base = instance.resources;
  base.memory_capacity_bytes *= 0.6;
  base.compute_capacity_s *= 0.6;
  base.total_rbs = std::max<std::size_t>(1, base.total_rbs / 2);
  cluster::ClusterRuntime runtime(
      instance.catalog, cluster::make_cells(3, base, 5), instance.radio,
      instance.tasks, {});
  const cluster::ClusterReport report = runtime.run(mixed_trace(8));

  std::size_t admitted = 0;
  for (const ClassStats& c : report.classes) admitted += c.admitted;
  EXPECT_GT(admitted, 0u);
  // Transformer tasks ("-vit" template names) really deploy: with 15 s
  // holding over a 30 s horizon, some are still live on the cells.
  bool vit_active = false;
  for (std::size_t i = 0; i < runtime.dispatcher().cell_count(); ++i)
    for (const std::string& name :
         runtime.dispatcher().cell(i).controller().active_tasks())
      if (name.find("vit") != std::string::npos) vit_active = true;
  EXPECT_TRUE(vit_active);
}


TEST(BatchingRuntime, BatchingAndAlertsReachMultiCellRuns) {
  // One engine: the multi-cell options inherit batching and burn-rate
  // alerting, and both blocks surface in the cluster report (they stay
  // absent when disabled, which the cluster goldens pin).
  const core::DotInstance instance =
      core::make_mixed_scenario(8, core::RequestRate::kMedium);
  edge::EdgeResources base = instance.resources;
  base.memory_capacity_bytes *= 0.6;
  base.compute_capacity_s *= 0.6;
  base.total_rbs = std::max<std::size_t>(1, base.total_rbs / 2);
  cluster::ClusterOptions options;
  options.batching.enabled = true;
  options.alerts.enabled = true;
  auto run_json = [&](int threads) {
    util::set_thread_count(threads);
    cluster::ClusterRuntime runtime(
        instance.catalog, cluster::make_cells(3, base, 5), instance.radio,
        instance.tasks, options);
    const cluster::ClusterReport report = runtime.run(mixed_trace(8));
    EXPECT_TRUE(report.batching.enabled);
    EXPECT_GT(report.batching.dispatches, 0u);
    EXPECT_LE(report.batching.probe_scale_min, 1.0);
    EXPECT_TRUE(report.alerts.enabled);
    EXPECT_EQ(report.alerts.epochs_evaluated, report.epochs);
    return report.to_json();
  };
  const std::string serial = run_json(1);
  const std::string parallel = run_json(4);
  util::set_thread_count(0);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"batching\""), std::string::npos);
  EXPECT_NE(serial.find("\"alerts\""), std::string::npos);
}

}  // namespace
}  // namespace odn::runtime
