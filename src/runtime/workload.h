// Churn workloads for the serving runtime — the paper's Sec. III-B dynamic
// scenario made long-horizon: tasks arrive, hold the edge for a while, and
// depart, either drawn from a seeded stochastic generator (Poisson
// arrivals, exponential holding times, optional flash-crowd bursts) or
// replayed from a serialized trace so a measured incident can be re-run
// bit-for-bit against a different policy.
//
// A trace is a time-sorted list of arrival/departure events over a set of
// task *templates* (the DotTask candidates the runtime instantiates); the
// template set itself is not part of the trace, only indices into it, so
// the same trace can replay against re-characterized catalogs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace odn::runtime {

enum class WorkloadEventKind : std::uint8_t { kArrival, kDeparture };

struct WorkloadEvent {
  double time_s = 0.0;
  WorkloadEventKind kind = WorkloadEventKind::kArrival;
  // Unique per arriving job; the matching departure carries the same id.
  std::uint64_t job_id = 0;
  // Which task template the job instantiates (index into the runtime's
  // template set). Departures repeat it for readability/debugging.
  std::size_t template_index = 0;

  // Optional QoS annotation (deadline-aware serving, src/sched/): an
  // admit-by deadline relative to the arrival instant and an effective
  // per-job priority in [0, 1] that overrides the template's. Arrivals
  // only, and all-or-nothing per trace: validate()/read_trace reject a
  // trace that annotates some arrivals but not others — silently
  // defaulting the missing ones would skew every deadline bucket.
  bool has_qos = false;
  double deadline_s = 0.0;
  double priority = 0.0;

  bool operator==(const WorkloadEvent& other) const noexcept;
};

struct WorkloadTrace {
  std::string name;
  double horizon_s = 0.0;          // last instant events may occur at
  std::size_t template_count = 0;  // templates the events index into
  std::vector<WorkloadEvent> events;  // sorted by (time, job_id, kind)

  std::size_t arrival_count() const noexcept;
  std::size_t departure_count() const noexcept;
  // True when arrivals carry QoS annotations. validate() guarantees the
  // answer is uniform across the trace, so checking any arrival suffices.
  bool has_qos() const noexcept;

  // Throws std::invalid_argument when events are unsorted, reference
  // templates out of range, depart jobs that never arrived, depart
  // before they arrive, or reuse a job id (also after its departure).
  void validate() const;
};

// QoS annotation layer for deadline-aware serving (src/sched/). Kept
// separate from the arrival process: annotations draw from their own
// derived Rng stream applied after events are sorted, so the base trace
// (times, job ids, templates) is bit-identical with QoS on or off.
struct WorkloadQosOptions {
  bool enabled = false;
  // Admit-by deadline relative to arrival: min_deadline_s plus an
  // exponential draw with mean mean_deadline_s * deadline_tightness.
  // Smaller tightness = tighter deadlines = more preemption pressure.
  double mean_deadline_s = 8.0;
  double min_deadline_s = 0.5;
  double deadline_tightness = 1.0;
  // Priority mix: relative weight of each equal-width band of [0, 1]
  // (e.g. {3, 1, 1} skews low-priority). Empty = uniform over [0, 1].
  std::vector<double> priority_mix;
};

// Stochastic churn generator. All draws come from one seeded Rng, so equal
// options produce equal traces on every platform the Rng is deterministic
// on (see util/rng.h).
struct WorkloadOptions {
  double horizon_s = 60.0;
  std::uint64_t seed = 2024;
  // Base Poisson arrival process: exponential inter-arrival gaps at this
  // rate, jobs/s.
  double arrival_rate_per_s = 1.0;
  // Job lifetime: exponential holding time with this mean. Departures past
  // the horizon are dropped (the job simply stays until the end).
  double mean_holding_s = 15.0;
  // Template mix: relative weight of each template (empty = uniform). The
  // large scenario's templates span the priority ladder, so the weights
  // shape the priority mix of the churn.
  std::vector<double> template_weights;
  // Flash crowds: `burst_count` bursts at uniform-random centers, each
  // adding Poisson(burst_arrivals_mean) extra jobs within burst_span_s.
  std::size_t burst_count = 0;
  double burst_arrivals_mean = 8.0;
  double burst_span_s = 2.0;
  // Deadline/priority annotations (disabled by default; see above).
  WorkloadQosOptions qos;
};

// Generates a validated trace for `template_count` task templates.
WorkloadTrace generate_workload(std::size_t template_count,
                                const WorkloadOptions& options);

// Annotates every arrival of an existing (sorted) trace with QoS fields
// drawn from a derived Rng stream over `seed`. Idempotent inputs are not
// required; existing annotations are overwritten. Used by
// generate_workload when options.qos.enabled, and directly by tools that
// retrofit deadlines onto replayed traces.
void annotate_qos(WorkloadTrace& trace, const WorkloadQosOptions& qos,
                  std::uint64_t seed);

// Trace persistence: line-oriented text, times printed with %.17g so the
// round-trip is exact. Format:
//   ODN-TRACE 1
//   name <trace name>
//   horizon <seconds>
//   templates <count>
//   events <count>
//   event <time> <A|D> <job_id> <template_index> [qos <deadline_s> <priority>]
// The `qos` suffix appears on arrivals of QoS-annotated traces only, and
// must appear on either all arrivals or none (all-or-nothing).
// Records follow the shared ODN-* grammar of util/record_reader.h.
void write_trace(const WorkloadTrace& trace, std::ostream& out);
void write_trace(const WorkloadTrace& trace, const std::string& path);

// Reads and validates a trace; throws std::runtime_error on malformed
// input with the offending line number.
WorkloadTrace read_trace(std::istream& in);
WorkloadTrace read_trace_file(const std::string& path);

}  // namespace odn::runtime
