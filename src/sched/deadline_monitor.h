// The deadline classifier: assigns every arriving job exactly one SLO
// bucket from the history the serving engine keeps on the job itself.
//
// Bucket precedence (first match wins):
//   rejected   — never served at all (final rejection, departed before
//                admission, or the horizon hit while still queued)
//   preempted  — served at some point, evicted, and never served again
//   missed     — first admission landed after arrival + deadline
//   downgraded — served to completion, but re-shaped to a cheaper (z, r)
//                at some point, or evicted and later readmitted
//   met        — served within deadline at the requested shape throughout
//
// Because the precedence is total and every job matches one rung,
//   met + missed + preempted + downgraded + rejected == arrivals
// holds by construction (the property test pins it across seeds).
#pragma once

#include <cstdint>
#include <optional>

namespace odn::sched {

enum class DeadlineBucket : std::uint8_t {
  kMet,
  kMissed,
  kPreempted,
  kDowngraded,
  kRejected,
};

// Stable lowercase bucket names ("met", "missed", ...). The obs task
// timelines derive the same partition independently from flight events
// (obs::classify_journey); the sched property tests cross-check the two.
const char* bucket_name(DeadlineBucket bucket) noexcept;

// What a job's bucket depends on beyond whether it is serving right now.
struct DeadlineHistory {
  double arrival_s = 0.0;
  // Admit-by deadline relative to arrival_s (the trace's QoS annotation
  // or the configured default); 0 means no deadline.
  double deadline_s = 0.0;
  std::optional<double> first_admitted_s;  // set by the first admission
  bool ever_preempted = false;    // evicted by the ladder or a fault
  bool ever_downgraded = false;   // re-shaped, or admitted at reduced shape
  bool departed_serving = false;  // the departure fired while serving

  // An admission or readmission at `now`; `downgraded` marks a reduced
  // shape (the retry policy's final-attempt downgrade). Only the first
  // admission instant is kept.
  void admit(double now, bool downgraded) {
    if (!first_admitted_s) first_admitted_s = now;
    if (downgraded) ever_downgraded = true;
  }
};

// The job's bucket in its current state. A serving job lands in the bucket
// it would keep if it departed now.
DeadlineBucket classify(const DeadlineHistory& history, bool serving) noexcept;

}  // namespace odn::sched
