#include "runtime/stats.h"

#include <algorithm>
#include <ostream>

#include "util/mathx.h"

namespace odn::runtime {

using obs::json_escape;

void ClassStats::merge_from(const ClassStats& other) {
  arrivals += other.arrivals;
  admitted += other.admitted;
  admitted_first_try += other.admitted_first_try;
  admitted_after_retry += other.admitted_after_retry;
  admitted_downgraded += other.admitted_downgraded;
  retries_scheduled += other.retries_scheduled;
  rejected_final += other.rejected_final;
  departed_before_admission += other.departed_before_admission;
  pending_at_end += other.pending_at_end;
  departures += other.departures;
  latency_samples_s.insert(latency_samples_s.end(),
                           other.latency_samples_s.begin(),
                           other.latency_samples_s.end());
  slo_violations += other.slo_violations;
}

double ClassStats::admission_rate() const {
  return arrivals == 0
             ? 0.0
             : static_cast<double>(admitted) / static_cast<double>(arrivals);
}

double ClassStats::p50_latency_s() const {
  return latency_samples_s.empty()
             ? 0.0
             : util::percentile(latency_samples_s, 50.0);
}

double ClassStats::p95_latency_s() const {
  return latency_samples_s.empty()
             ? 0.0
             : util::percentile(latency_samples_s, 95.0);
}

double ClassStats::mean_latency_s() const {
  if (latency_samples_s.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : latency_samples_s) sum += s;
  return sum / static_cast<double>(latency_samples_s.size());
}

double ClassStats::slo_violation_rate() const {
  return latency_samples_s.empty()
             ? 0.0
             : static_cast<double>(slo_violations) /
                   static_cast<double>(latency_samples_s.size());
}

void write_class_stats_json(std::ostream& out, const ClassStats& c,
                            const std::string& indent) {
  out << indent << "{\n";
  out << indent << "  \"name\": \"" << json_escape(c.name) << "\",\n";
  out << indent << "  \"arrivals\": " << c.arrivals << ",\n";
  out << indent << "  \"admitted\": " << c.admitted << ",\n";
  out << indent << "  \"admitted_first_try\": " << c.admitted_first_try
      << ",\n";
  out << indent << "  \"admitted_after_retry\": " << c.admitted_after_retry
      << ",\n";
  out << indent << "  \"admitted_downgraded\": " << c.admitted_downgraded
      << ",\n";
  out << indent << "  \"retries_scheduled\": " << c.retries_scheduled
      << ",\n";
  out << indent << "  \"rejected_final\": " << c.rejected_final << ",\n";
  out << indent << "  \"departed_before_admission\": "
      << c.departed_before_admission << ",\n";
  out << indent << "  \"pending_at_end\": " << c.pending_at_end << ",\n";
  out << indent << "  \"departures\": " << c.departures << ",\n";
  out << indent << "  \"admission_rate\": " << json_double(c.admission_rate())
      << ",\n";
  out << indent << "  \"latency\": {\n";
  out << indent << "    \"samples\": " << c.latency_samples_s.size()
      << ",\n";
  out << indent << "    \"mean_s\": " << json_double(c.mean_latency_s())
      << ",\n";
  // Both percentiles select from one scratch copy: the order statistics do
  // not depend on the order the first selection leaves behind.
  std::vector<double> samples = c.latency_samples_s;
  const auto pct = [&](double p) {
    return samples.empty() ? 0.0 : util::percentile_in_place(samples, p);
  };
  out << indent << "    \"p50_s\": " << json_double(pct(50.0)) << ",\n";
  out << indent << "    \"p95_s\": " << json_double(pct(95.0)) << "\n";
  out << indent << "  },\n";
  out << indent << "  \"slo\": {\n";
  out << indent << "    \"violations\": " << c.slo_violations << ",\n";
  out << indent << "    \"violation_rate\": "
      << json_double(c.slo_violation_rate()) << "\n";
  out << indent << "  }\n";
  out << indent << "}";
}

void BatchingStats::write_json(std::ostream& out,
                               const std::string& indent) const {
  out << "{\n";
  out << indent << "  \"dispatches\": " << dispatches << ",\n";
  out << indent << "  \"coalesced_requests\": " << coalesced_requests
      << ",\n";
  out << indent << "  \"max_batch\": " << max_batch << ",\n";
  out << indent << "  \"probe_scale_min\": " << json_double(probe_scale_min)
      << "\n";
  out << indent << "}";
}

void BatchingStats::merge_from(const BatchingStats& other) {
  enabled = enabled || other.enabled;
  dispatches += other.dispatches;
  coalesced_requests += other.coalesced_requests;
  max_batch = std::max(max_batch, other.max_batch);
  probe_scale_min = std::min(probe_scale_min, other.probe_scale_min);
}

void write_alert_log_json(std::ostream& out, const obs::AlertLog& log,
                          const std::string& indent) {
  out << "{\n";
  out << indent << "  \"epochs_evaluated\": " << log.epochs_evaluated
      << ",\n";
  out << indent << "  \"fired\": " << log.fired << ",\n";
  out << indent << "  \"resolved\": " << log.resolved << ",\n";
  out << indent << "  \"records\": [";
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    const obs::AlertRecord& r = log.records[i];
    out << (i == 0 ? "" : ",") << "\n" << indent << "    {\"seq\": " << r.seq
        << ", \"epoch\": " << r.epoch << ", \"t_s\": "
        << json_double(r.time_s) << ", \"class\": \""
        << json_escape(r.class_name) << "\", \"state\": \""
        << (r.firing ? "fire" : "resolve") << "\", \"fast_burn\": "
        << json_double(r.fast_burn) << ", \"slow_burn\": "
        << json_double(r.slow_burn) << ", \"fast_samples\": "
        << r.fast_samples << ", \"slow_samples\": " << r.slow_samples
        << "}";
  }
  out << (log.records.empty() ? "" : "\n" + indent + "  ") << "]\n";
  out << indent << "}";
}

}  // namespace odn::runtime
