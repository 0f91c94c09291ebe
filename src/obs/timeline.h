// Causal task timelines — the post-run pass over the flight record.
//
// Groups the recorder's event stream by task correlation id and emits one
// ordered journey record per task (arrival → fate). The terminal fate is
// derived purely from the event sequence — a second, independent
// implementation of sched::classify's bucket precedence — so the sched
// property tests can cross-check the two classifications against each
// other (timeline fate == classifier bucket for every complete journey,
// and the fate histogram == the report's bucket partition).
//
// A journey is `complete` only when its arrival event survived ring
// eviction; truncated journeys keep their retained steps but are excluded
// from the cross-check (a dropped admission would misclassify them).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/flight.h"

namespace odn::obs {

struct TaskTimeline {
  std::uint64_t task = 0;
  double arrival_s = 0.0;
  double deadline_s = 0.0;  // 0 = no admit-by deadline annotated
  bool complete = false;    // arrival event retained in the ring
  // One of "rejected", "preempted", "missed", "downgraded", "met" —
  // static literals, sched::bucket_name names.
  const char* fate = "rejected";
  std::vector<FlightEvent> steps;  // ordered by seq
};

// Mirrors sched::classify over a flight-event journey:
//   rejected   — no admission/readmission event
//   preempted  — evicted and never served again
//   missed     — first admission after arrival + deadline (deadline > 0)
//   downgraded — any downgrade, or served again after an eviction
//   met        — served within deadline at the requested shape
const char* classify_journey(const std::vector<FlightEvent>& steps);

// Builds one timeline per distinct task id (events with task ==
// kNoFlightTask are skipped), ordered by task id ascending. `events`
// must be in seq order, as FlightRecorder::snapshot() returns them.
std::vector<TaskTimeline> build_task_timelines(
    const std::vector<FlightEvent>& events);

// Serializes timelines as an "odn-task-timelines/1" document.
void write_timelines_json(std::ostream& out,
                          const std::vector<TaskTimeline>& timelines);
bool write_timelines_json(const std::string& path,
                          const std::vector<TaskTimeline>& timelines);

}  // namespace odn::obs
