// The serving engine's accounting building blocks, shared by both report
// schemas (cluster/cluster_stats.h): per-priority-class admission
// lifecycle counters, measured-latency percentiles and SLO-violation
// rates, peak resource watermarks and batching counters, plus the JSON
// writers for the class and alert blocks.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/alerts.h"
#include "obs/json.h"

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

// Writes one ClassStats object (the per-class block of both report
// schemas) with stable key order. `indent` is prepended to every line;
// the closing brace gets no trailing newline so callers control the
// separator.
void write_class_stats_json(std::ostream& out, const ClassStats& stats,
                            const std::string& indent);

// Writes the burn-rate alert stream (the "alerts" block of both report
// schemas, also reused standalone by the benches) with stable key order and
// json_double formatting. Same indent contract as write_class_stats_json.
void write_alert_log_json(std::ostream& out, const obs::AlertLog& log,
                          const std::string& indent);

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

}  // namespace odn::runtime
