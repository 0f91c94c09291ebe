#include "runtime/serving_runtime.h"

#include <utility>

namespace odn::runtime {
namespace {

cluster::ClusterOptions one_cell_options(RuntimeOptions options) {
  cluster::ClusterOptions engine;
  static_cast<RuntimeOptions&>(engine) = std::move(options);
  engine.dispatch.policy = cluster::PlacementPolicy::kFirstFit;
  // The dispatcher's shared cache replaces the controller's private one;
  // size it exactly as the controller would have.
  engine.dispatch.plan_cache = engine.controller.cache.plan_cache;
  engine.dispatch.plan_cache_capacity = engine.controller.cache.plan_capacity;
  return engine;
}

}  // namespace

ServingRuntime::ServingRuntime(edge::DnnCatalog catalog,
                               edge::EdgeResources resources,
                               edge::RadioModel radio,
                               std::vector<core::DotTask> templates,
                               RuntimeOptions options)
    : engine_(std::move(catalog), {cluster::CellSpec{"cell-0", resources}},
              radio, std::move(templates),
              one_cell_options(std::move(options))) {}

RuntimeReport ServingRuntime::run(const WorkloadTrace& trace) {
  cluster::ClusterReport engine = engine_.run(trace);
  cluster::CellReport& cell = engine.cells.front();

  RuntimeReport report;
  report.trace_name = std::move(engine.trace_name);
  report.seed = engine.seed;
  report.horizon_s = engine.horizon_s;
  report.events_processed = engine.events_processed;
  report.epochs = engine.epochs;
  report.classes = engine.aggregate_classes();
  report.watermarks = cell.watermarks;
  report.timeline.reserve(engine.timeline.size());
  for (const cluster::ClusterEpochSnapshot& epoch : engine.timeline) {
    const cluster::ClusterEpochSnapshot::CellSample& sample =
        epoch.cells.front();
    EpochSnapshot snapshot;
    snapshot.time_s = epoch.time_s;
    snapshot.active_tasks = epoch.active_tasks;
    snapshot.deployed_blocks = sample.deployed_blocks;
    snapshot.samples = epoch.samples;
    snapshot.p95_latency_s = sample.p95_latency_s;
    snapshot.slo_violations = epoch.slo_violations;
    snapshot.gpu_busy_fraction = sample.gpu_busy_fraction;
    snapshot.measure_wall_s = epoch.measure_wall_s;
    report.timeline.push_back(snapshot);
  }
  report.active_at_end = engine.active_at_end;
  report.deployed_blocks_at_end = cell.deployed_blocks_at_end;
  report.faults = std::move(engine.faults);
  report.sched = std::move(engine.sched);
  report.batching = engine.batching;
  report.alerts = std::move(engine.alerts);
  report.run_wall_s = engine.run_wall_s;
  return report;
}

}  // namespace odn::runtime
