// SLO accounting for the serving runtime: per-priority-class admission
// lifecycle counters, measured-latency percentiles and SLO-violation
// rates, per-epoch timeline snapshots and peak resource watermarks —
// exported as a machine-readable JSON report (the interface the churn
// bench and downstream dashboards consume).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/fault_stats.h"
#include "obs/alerts.h"
#include "obs/json.h"
#include "sched/sched_stats.h"

namespace odn::runtime {

// Lifecycle + latency accounting for one priority class.
struct ClassStats {
  std::string name;

  // Admission lifecycle (jobs).
  std::size_t arrivals = 0;
  std::size_t admitted = 0;            // eventually admitted
  std::size_t admitted_first_try = 0;
  std::size_t admitted_after_retry = 0;
  std::size_t admitted_downgraded = 0;  // admitted on a relaxed final try
  std::size_t retries_scheduled = 0;
  std::size_t rejected_final = 0;       // attempts exhausted, never admitted
  std::size_t departed_before_admission = 0;  // left while still retrying
  std::size_t pending_at_end = 0;       // horizon hit mid-backoff
  std::size_t departures = 0;           // released while active

  // Measured latency (epoch emulation samples) against the class tasks'
  // per-task bounds.
  std::vector<double> latency_samples_s;
  std::size_t slo_violations = 0;

  double admission_rate() const;      // admitted / arrivals
  double p50_latency_s() const;
  double p95_latency_s() const;
  double mean_latency_s() const;
  double slo_violation_rate() const;  // violations / samples

  // Aggregation hook (cluster-wide rollups): sums every counter of `other`
  // into this and appends its latency samples in order. The name is kept.
  void merge_from(const ClassStats& other);
};

// The reports' locale-independent 17-significant-digit double format.
using obs::json_double;

// Writes one ClassStats object (the per-class block of the runtime report)
// with stable key order. `indent` is prepended to every line; the closing
// brace gets no trailing newline so callers control the separator.
void write_class_stats_json(std::ostream& out, const ClassStats& stats,
                            const std::string& indent);

// Writes the burn-rate alert stream (the "alerts" block of the runtime
// report, also reused standalone by the benches) with stable key order and
// json_double formatting. Same indent contract as write_class_stats_json.
void write_alert_log_json(std::ostream& out, const obs::AlertLog& log,
                          const std::string& indent);

// One epoch-boundary measurement of the live deployment.
struct EpochSnapshot {
  double time_s = 0.0;
  std::size_t active_tasks = 0;
  std::size_t deployed_blocks = 0;
  std::size_t samples = 0;
  double p95_latency_s = 0.0;
  std::size_t slo_violations = 0;
  double gpu_busy_fraction = 0.0;

  // Monotonic wall time spent in this epoch's measurement (emulation +
  // sample accounting). Diagnostics only: write_json never serializes it,
  // so golden-compared reports stay free of wall-clock noise.
  double measure_wall_s = 0.0;
};

// Peak ledger usage observed over the whole run, against the capacities.
struct ResourceWatermarks {
  double peak_memory_bytes = 0.0;
  double peak_compute_s = 0.0;
  std::size_t peak_rbs = 0;
  double memory_capacity_bytes = 0.0;
  double compute_capacity_s = 0.0;
  std::size_t rb_capacity = 0;
};

// Epoch-boundary batching accounting (model/batching.h). Zero-valued and
// unserialized unless the feature is enabled, mirroring FaultStats.
struct BatchingStats {
  bool enabled = false;
  std::size_t dispatches = 0;          // GPU dispatches across all epochs
  std::size_t coalesced_requests = 0;  // requests that rode along (Σ b−1)
  std::size_t max_batch = 0;           // largest batch ever dispatched
  // Tightest amortized compute factor the admission probes applied to any
  // task template (1.0 when no template's rate fills a batch).
  double probe_scale_min = 1.0;

  void write_json(std::ostream& out, const std::string& indent) const;
  void merge_from(const BatchingStats& other);
};

struct RuntimeReport {
  std::string trace_name;
  std::uint64_t seed = 0;
  double horizon_s = 0.0;
  std::size_t events_processed = 0;
  std::size_t epochs = 0;
  std::vector<ClassStats> classes;  // ascending priority order
  ResourceWatermarks watermarks;
  std::vector<EpochSnapshot> timeline;
  std::size_t active_at_end = 0;
  std::size_t deployed_blocks_at_end = 0;

  // Fault + recovery accounting. Serialized (as a "faults" block) only
  // when enabled — a run with no fault plan keeps its report bytes
  // identical to the pre-fault schema.
  fault::FaultStats faults;

  // Preemption/deadline scheduling accounting. Serialized (as a "sched"
  // block) only when enabled, for the same reason as `faults`.
  sched::SchedStats sched;

  // Epoch-boundary batching accounting. Serialized (as a "batching" block)
  // only when enabled, for the same reason as `faults`.
  BatchingStats batching;

  // SLO burn-rate alert stream (obs/alerts.h). Serialized (as an "alerts"
  // block) only when enabled, for the same reason as `faults`.
  obs::AlertLog alerts;

  // Monotonic wall time for the whole run() call. Like
  // EpochSnapshot::measure_wall_s this is diagnostics only — excluded from
  // write_json so the report bytes stay deterministic.
  double run_wall_s = 0.0;

  std::size_t total_arrivals() const;
  std::size_t total_admitted() const;
  std::size_t total_slo_violations() const;

  // Stable-key-order JSON; doubles printed via json_double (17 significant
  // digits, locale-independent) so equal runs serialize identically (the
  // determinism acceptance check diffs this).
  void write_json(std::ostream& out) const;
  std::string to_json() const;
};

}  // namespace odn::runtime
