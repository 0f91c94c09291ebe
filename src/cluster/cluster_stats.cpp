#include "cluster/cluster_stats.h"

#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace odn::cluster {
namespace {

using obs::json_escape;

void write_classes_json(std::ostream& out,
                        const std::vector<runtime::ClassStats>& classes,
                        const std::string& indent) {
  out << "[\n";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    runtime::write_class_stats_json(out, classes[i], indent + "  ");
    out << (i + 1 < classes.size() ? "," : "") << "\n";
  }
  out << indent << "]";
}

void write_watermarks_json(std::ostream& out,
                           const runtime::ResourceWatermarks& w,
                           const std::string& indent) {
  out << "{\n";
  out << indent << "  \"peak_memory_bytes\": "
      << runtime::json_double(w.peak_memory_bytes) << ",\n";
  out << indent << "  \"peak_compute_s\": "
      << runtime::json_double(w.peak_compute_s) << ",\n";
  out << indent << "  \"peak_rbs\": " << w.peak_rbs << ",\n";
  out << indent << "  \"memory_capacity_bytes\": "
      << runtime::json_double(w.memory_capacity_bytes) << ",\n";
  out << indent << "  \"compute_capacity_s\": "
      << runtime::json_double(w.compute_capacity_s) << ",\n";
  out << indent << "  \"rb_capacity\": " << w.rb_capacity << "\n";
  out << indent << "}";
}

// The optional feature blocks, each written only when its feature was on
// so a run without it keeps its exact bytes.
void write_feature_blocks(std::ostream& out, const ClusterReport& report) {
  if (report.faults.enabled) {
    out << "  \"faults\": ";
    report.faults.write_json(out, "  ");
    out << ",\n";
  }

  if (report.sched.enabled) {
    out << "  \"sched\": ";
    report.sched.write_json(out, "  ");
    out << ",\n";
  }

  if (report.batching.enabled) {
    out << "  \"batching\": ";
    report.batching.write_json(out, "  ");
    out << ",\n";
  }

  if (report.alerts.enabled) {
    out << "  \"alerts\": ";
    runtime::write_alert_log_json(out, report.alerts, "  ");
    out << ",\n";
  }
}

}  // namespace

std::size_t CellReport::admitted() const {
  return admitted_preferred + admitted_spillover + migrations_in;
}

std::size_t ClusterReport::total_arrivals() const {
  std::size_t n = 0;
  for (const runtime::ClassStats& c : classes) n += c.arrivals;
  return n;
}

std::size_t ClusterReport::total_admitted() const {
  std::size_t n = 0;
  for (const runtime::ClassStats& c : classes) n += c.admitted;
  return n;
}

std::size_t ClusterReport::total_rejected() const {
  std::size_t n = 0;
  for (const runtime::ClassStats& c : classes) n += c.rejected_final;
  return n;
}

std::size_t ClusterReport::total_slo_violations() const {
  std::size_t n = 0;
  for (const CellReport& cell : cells)
    for (const runtime::ClassStats& c : cell.classes)
      n += c.slo_violations;
  return n;
}

std::vector<runtime::ClassStats> ClusterReport::aggregate_classes() const {
  std::vector<runtime::ClassStats> aggregate = classes;
  for (const CellReport& cell : cells)
    for (std::size_t c = 0; c < cell.classes.size() && c < aggregate.size();
         ++c)
      aggregate[c].merge_from(cell.classes[c]);
  return aggregate;
}

void ClusterReport::write_json(std::ostream& out) const {
  out << "{\n";
  out << "  \"schema\": \"odn-cluster-report/1\",\n";
  out << "  \"trace\": \"" << json_escape(trace_name) << "\",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"horizon_s\": " << runtime::json_double(horizon_s) << ",\n";
  out << "  \"policy\": \"" << json_escape(policy) << "\",\n";
  out << "  \"spillover\": " << (spillover ? "true" : "false") << ",\n";
  out << "  \"cell_count\": " << cells.size() << ",\n";
  out << "  \"events_processed\": " << events_processed << ",\n";
  out << "  \"epochs\": " << epochs << ",\n";

  out << "  \"classes\": ";
  write_classes_json(out, classes, "  ");
  out << ",\n";

  out << "  \"aggregate_classes\": ";
  write_classes_json(out, aggregate_classes(), "  ");
  out << ",\n";

  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellReport& cell = cells[i];
    out << "    {\n";
    out << "      \"name\": \"" << json_escape(cell.name) << "\",\n";
    out << "      \"admitted_preferred\": " << cell.admitted_preferred
        << ",\n";
    out << "      \"admitted_spillover\": " << cell.admitted_spillover
        << ",\n";
    out << "      \"migrations_in\": " << cell.migrations_in << ",\n";
    out << "      \"migrations_out\": " << cell.migrations_out << ",\n";
    out << "      \"active_at_end\": " << cell.active_at_end << ",\n";
    out << "      \"deployed_blocks_at_end\": "
        << cell.deployed_blocks_at_end << ",\n";
    out << "      \"classes\": ";
    write_classes_json(out, cell.classes, "      ");
    out << ",\n";
    out << "      \"watermarks\": ";
    write_watermarks_json(out, cell.watermarks, "      ");
    out << "\n";
    out << "    }" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  out << "  \"migration\": {\n";
  out << "    \"attempted\": " << migration.attempted << ",\n";
  out << "    \"migrated\": " << migration.migrated << ",\n";
  out << "    \"no_target\": " << migration.no_target << "\n";
  out << "  },\n";

  out << "  \"timeline\": [\n";
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const ClusterEpochSnapshot& e = timeline[i];
    out << "    {\"t_s\": " << runtime::json_double(e.time_s)
        << ", \"active\": " << e.active_tasks
        << ", \"samples\": " << e.samples
        << ", \"slo_violations\": " << e.slo_violations
        << ", \"cells_violating\": " << e.cells_violating
        << ", \"migrations\": " << e.migrations << "}"
        << (i + 1 < timeline.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  write_feature_blocks(out, *this);

  out << "  \"final\": {\n";
  out << "    \"active_tasks\": " << active_at_end << "\n";
  out << "  }\n";
  out << "}\n";
}

std::string ClusterReport::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

void write_single_server_json(std::ostream& out, const ClusterReport& report) {
  if (report.cells.size() != 1)
    throw std::logic_error(
        "single-server report needs exactly one cell, got " +
        std::to_string(report.cells.size()));
  for (const ClusterEpochSnapshot& e : report.timeline)
    if (e.cells.size() != 1)
      throw std::logic_error(
          "single-server epoch needs exactly one cell sample, got " +
          std::to_string(e.cells.size()));
  const CellReport& cell = report.cells[0];

  out << "{\n";
  out << "  \"schema\": \"odn-runtime-report/1\",\n";
  out << "  \"trace\": \"" << json_escape(report.trace_name) << "\",\n";
  out << "  \"seed\": " << report.seed << ",\n";
  out << "  \"horizon_s\": " << runtime::json_double(report.horizon_s)
      << ",\n";
  out << "  \"events_processed\": " << report.events_processed << ",\n";
  out << "  \"epochs\": " << report.epochs << ",\n";

  out << "  \"classes\": ";
  write_classes_json(out, report.aggregate_classes(), "  ");
  out << ",\n";

  out << "  \"watermarks\": ";
  write_watermarks_json(out, cell.watermarks, "  ");
  out << ",\n";

  out << "  \"timeline\": [\n";
  for (std::size_t i = 0; i < report.timeline.size(); ++i) {
    const ClusterEpochSnapshot& e = report.timeline[i];
    const ClusterEpochSnapshot::CellSample& sample = e.cells[0];
    out << "    {\"t_s\": " << runtime::json_double(e.time_s)
        << ", \"active\": " << e.active_tasks
        << ", \"deployed_blocks\": " << sample.deployed_blocks
        << ", \"samples\": " << e.samples
        << ", \"p95_s\": " << runtime::json_double(sample.p95_latency_s)
        << ", \"slo_violations\": " << e.slo_violations
        << ", \"gpu_busy\": " << runtime::json_double(sample.gpu_busy_fraction)
        << "}" << (i + 1 < report.timeline.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  write_feature_blocks(out, report);

  out << "  \"final\": {\n";
  out << "    \"active_tasks\": " << report.active_at_end << ",\n";
  out << "    \"deployed_blocks\": " << cell.deployed_blocks_at_end << "\n";
  out << "  }\n";
  out << "}\n";
}

void export_metrics(const ClusterReport& report, bool migration_on,
                    obs::MetricsRegistry& registry) {
  obs::Histogram& epoch_latency = registry.histogram(
      "odn_runtime_epoch_latency_seconds",
      {0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0});
  // Each class's totals over the report's own book and every cell's, as
  // aggregate_classes() sums them, but read in place instead of copied.
  std::vector<const runtime::ClassStats*> books;
  for (std::size_t c = 0; c < report.classes.size(); ++c) {
    books.assign(1, &report.classes[c]);
    for (const CellReport& cell : report.cells)
      if (c < cell.classes.size()) books.push_back(&cell.classes[c]);
    const auto total = [&](std::size_t runtime::ClassStats::*field) {
      std::uint64_t sum = 0;
      for (const runtime::ClassStats* book : books) sum += book->*field;
      return sum;
    };
    const obs::Labels labels{{"class", report.classes[c].name}};
    registry.counter("odn_runtime_arrivals_total", labels)
        .inc(total(&runtime::ClassStats::arrivals));
    registry.counter("odn_runtime_admissions_total", labels)
        .inc(total(&runtime::ClassStats::admitted));
    registry.counter("odn_runtime_rejections_total", labels)
        .inc(total(&runtime::ClassStats::rejected_final));
    registry.counter("odn_runtime_retries_total", labels)
        .inc(total(&runtime::ClassStats::retries_scheduled));
    registry.counter("odn_runtime_slo_violations_total", labels)
        .inc(total(&runtime::ClassStats::slo_violations));
    // Emulated (virtual-time) latencies and a fixed-point sum: the buckets
    // snapshot identically for any ODN_THREADS and any observation order.
    for (const runtime::ClassStats* book : books)
      epoch_latency.observe_all(book->latency_samples_s);
  }
  registry.counter("odn_runtime_epochs_total").inc(report.epochs);
  std::uint64_t samples = 0;
  for (const ClusterEpochSnapshot& epoch : report.timeline)
    samples += epoch.samples;
  registry.counter("odn_runtime_emulation_samples_total").inc(samples);

  if (report.faults.enabled) {
    const fault::FaultStats& f = report.faults;
    registry.counter("odn_fault_events_total").inc(f.events_applied);
    registry.counter("odn_fault_displaced_total").inc(f.displaced);
    registry.counter("odn_fault_replacements_total")
        .inc(f.displaced_replaced + f.displaced_readmitted);
    registry.counter("odn_fault_rejections_total").inc(f.displaced_rejected);
  }
  if (report.sched.enabled) {
    const sched::SchedStats& s = report.sched;
    registry.counter("odn_sched_probes_total").inc(s.probes);
    registry.counter("odn_sched_preemptions_total").inc(s.preemptions);
    registry.counter("odn_sched_downgrades_total").inc(s.downgrades);
    registry.counter("odn_sched_readmissions_total")
        .inc(s.preempted_readmitted);
    registry.counter("odn_sched_ladder_rejections_total")
        .inc(s.ladder_rejected);
  }
  if (report.batching.enabled) {
    registry.counter("odn_batch_dispatches_total")
        .inc(report.batching.dispatches);
    registry.counter("odn_batch_coalesced_requests_total")
        .inc(report.batching.coalesced_requests);
  }
  if (migration_on) {
    registry.counter("odn_cluster_migrations_attempted_total")
        .inc(report.migration.attempted);
    registry.counter("odn_cluster_migrations_total")
        .inc(report.migration.migrated);
    registry.counter("odn_cluster_migration_no_target_total")
        .inc(report.migration.no_target);
  }
}

}  // namespace odn::cluster
