// The serving engine's report: per-cell, per-priority-class stats (reusing
// runtime::ClassStats), placement/spillover/migration counters and the
// cluster-wide rollups. One report type with two JSON schemas, both with
// stable key order and locale-independent json_double: the cluster schema
// (ClusterReport::write_json) and, for a one-cell run, the single-server
// schema (write_single_server_json).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/fault_stats.h"
#include "runtime/stats.h"
#include "sched/sched_stats.h"

namespace odn::obs {
class MetricsRegistry;
}  // namespace odn::obs

namespace odn::cluster {

// What happened at one cell over the run. Lifecycle fields of the
// per-class stats cover only events that landed at this cell (admissions,
// departures, measurement samples); cluster-level outcomes that precede
// placement (arrivals, final rejections, pending jobs) live in the
// cluster-wide classes of ClusterReport.
struct CellReport {
  std::string name;
  std::vector<runtime::ClassStats> classes;
  runtime::ResourceWatermarks watermarks;
  std::size_t admitted_preferred = 0;  // placed on the policy's choice
  std::size_t admitted_spillover = 0;  // landed after spillover probing
  std::size_t migrations_in = 0;
  std::size_t migrations_out = 0;
  std::size_t active_at_end = 0;
  std::size_t deployed_blocks_at_end = 0;

  std::size_t admitted() const;  // preferred + spillover + migrations_in
};

struct MigrationStats {
  std::size_t attempted = 0;  // candidate (job, epoch) migration attempts
  std::size_t migrated = 0;   // released and re-admitted on a sibling
  std::size_t no_target = 0;  // every sibling probe rejected the move
};

// One epoch-boundary snapshot of the whole cluster.
struct ClusterEpochSnapshot {
  double time_s = 0.0;
  std::size_t active_tasks = 0;       // across all cells
  std::size_t samples = 0;
  std::size_t slo_violations = 0;
  std::size_t cells_violating = 0;    // cells with >= 1 violation this epoch
  std::size_t migrations = 0;         // successful moves at this boundary

  // Per-cell measurement detail, indexed by cell. The cluster schema does
  // not serialize it; the single-server schema writes its timeline's
  // deployed_blocks, p95_s and gpu_busy from cells[0].
  struct CellSample {
    std::size_t deployed_blocks = 0;
    double p95_latency_s = 0.0;
    double gpu_busy_fraction = 0.0;
  };
  std::vector<CellSample> cells;

  // Monotonic wall time for this epoch's measurement + migration pass.
  // Diagnostics only: never serialized (the golden byte-compare forbids
  // wall-clock data in the report).
  double measure_wall_s = 0.0;
};

struct ClusterReport {
  std::string trace_name;
  std::uint64_t seed = 0;
  double horizon_s = 0.0;
  std::string policy;
  bool spillover = true;
  std::size_t events_processed = 0;
  std::size_t epochs = 0;

  // Cluster-level lifecycle per class (arrivals, retries, rejections,
  // pending — everything that happens before/without a cell). Departures,
  // latency samples and SLO violations live on cells[i].classes, so read
  // them through aggregate_classes(), also on a one-cell report.
  std::vector<runtime::ClassStats> classes;
  std::vector<CellReport> cells;
  MigrationStats migration;
  std::vector<ClusterEpochSnapshot> timeline;
  std::size_t active_at_end = 0;

  // Fault + recovery accounting; serialized only when enabled (non-empty
  // fault plan), so fault-free cluster reports keep their exact bytes.
  fault::FaultStats faults;

  // Preemption/deadline scheduling accounting (cluster-wide: ladder
  // decisions on any cell, victims, deadline buckets). Serialized as a
  // "sched" block only when enabled, for the same reason as `faults`.
  sched::SchedStats sched;

  // Epoch-boundary batching and burn-rate alert accounting over every
  // cell; each serialized only when enabled, for the same reason.
  runtime::BatchingStats batching;
  obs::AlertLog alerts;

  // Monotonic wall time for the whole run() call; excluded from write_json
  // like ClusterEpochSnapshot::measure_wall_s.
  double run_wall_s = 0.0;

  std::size_t total_arrivals() const;
  std::size_t total_admitted() const;   // summed over cells
  std::size_t total_rejected() const;
  std::size_t total_slo_violations() const;

  // Cluster-wide per-class aggregate: the cluster lifecycle stats merged
  // with every cell's per-class stats (runtime::ClassStats::merge_from).
  std::vector<runtime::ClassStats> aggregate_classes() const;

  // The odn-cluster-report/1 schema.
  void write_json(std::ostream& out) const;
  std::string to_json() const;
};

// Writes a one-cell report in the single server's odn-runtime-report/1
// schema: aggregate_classes() as its classes, cells[0]'s watermarks and
// final deployed blocks, and each epoch's cells[0] sample. Throws
// std::logic_error unless the report has exactly one cell and every
// timeline entry exactly one CellSample.
void write_single_server_json(std::ostream& out, const ClusterReport& report);

// Publishes the engine's metric series from a finished report into
// `registry` (DESIGN.md §6 has the series-to-field table). Counters add
// the report's totals, so repeated runs accumulate as they always did.
// Feature series enter the registry only when the feature could fire:
// faults with a non-empty plan, sched and batching when enabled, and
// migration when `migration_on` (migrate_on_slo with a sibling cell), so a
// run without them keeps its exact series set.
void export_metrics(const ClusterReport& report, bool migration_on,
                    obs::MetricsRegistry& registry);

}  // namespace odn::cluster
