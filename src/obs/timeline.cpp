#include "obs/timeline.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <string_view>

#include "obs/json.h"

namespace odn::obs {
namespace {

bool is_downgraded_admission(const FlightEvent& event) {
  return std::string_view(event.detail) == "downgraded";
}

}  // namespace

const char* classify_journey(const std::vector<FlightEvent>& steps) {
  bool admitted = false;
  double arrival_s = 0.0;
  double deadline_s = 0.0;
  double first_admitted_s = 0.0;
  bool serving = false;
  bool departed_serving = false;
  bool ever_preempted = false;
  bool ever_downgraded = false;

  for (const FlightEvent& event : steps) {
    switch (event.kind) {
      case FlightEventKind::kArrival:
        arrival_s = event.time_s;
        deadline_s = event.value;
        break;
      case FlightEventKind::kAdmission:
      case FlightEventKind::kReadmission:
        if (!admitted) {
          admitted = true;
          first_admitted_s = event.time_s;
        }
        serving = true;
        if (is_downgraded_admission(event)) ever_downgraded = true;
        break;
      case FlightEventKind::kDowngrade:
        ever_downgraded = true;
        break;
      case FlightEventKind::kPreemption:
      case FlightEventKind::kDisplacement:
        serving = false;
        ever_preempted = true;
        break;
      case FlightEventKind::kRejection:
        serving = false;
        break;
      case FlightEventKind::kDeparture:
        if (serving) {
          departed_serving = true;
          serving = false;
        }
        break;
      default:
        break;  // violations, retries, seals: no fate-state change
    }
  }

  // The sched::classify precedence, re-derived from the journey alone.
  if (!admitted) return "rejected";
  if (!serving && !departed_serving) return "preempted";
  if (deadline_s > 0.0 && first_admitted_s > arrival_s + deadline_s)
    return "missed";
  if (ever_downgraded || ever_preempted) return "downgraded";
  return "met";
}

std::vector<TaskTimeline> build_task_timelines(
    const std::vector<FlightEvent>& events) {
  // std::map keeps task ids ascending — the output order contract.
  std::map<std::uint64_t, TaskTimeline> by_task;
  for (const FlightEvent& event : events) {
    if (event.task == kNoFlightTask) continue;
    TaskTimeline& timeline = by_task[event.task];
    timeline.task = event.task;
    timeline.steps.push_back(event);
  }

  std::vector<TaskTimeline> timelines;
  timelines.reserve(by_task.size());
  for (auto& [task, timeline] : by_task) {
    (void)task;
    timeline.complete = !timeline.steps.empty() &&
                        timeline.steps.front().kind ==
                            FlightEventKind::kArrival;
    if (timeline.complete) {
      timeline.arrival_s = timeline.steps.front().time_s;
      timeline.deadline_s = timeline.steps.front().value;
    }
    timeline.fate = classify_journey(timeline.steps);
    timelines.push_back(std::move(timeline));
  }
  return timelines;
}

void write_timelines_json(std::ostream& out,
                          const std::vector<TaskTimeline>& timelines) {
  out << "{\n  \"schema\": \"odn-task-timelines/1\",\n";
  out << "  \"tasks\": " << timelines.size() << ",\n";
  out << "  \"timelines\": [";
  for (std::size_t i = 0; i < timelines.size(); ++i) {
    const TaskTimeline& timeline = timelines[i];
    out << (i == 0 ? "" : ",") << "\n    {\"task\": " << timeline.task
        << ", \"arrival_s\": " << json_shortest(timeline.arrival_s)
        << ", \"deadline_s\": " << json_shortest(timeline.deadline_s)
        << ", \"complete\": " << (timeline.complete ? "true" : "false")
        << ", \"fate\": \"" << timeline.fate << "\",\n     \"steps\": [";
    for (std::size_t s = 0; s < timeline.steps.size(); ++s) {
      const FlightEvent& event = timeline.steps[s];
      out << (s == 0 ? "" : ",") << "\n       {\"seq\": " << event.seq
          << ", \"t_s\": " << json_shortest(event.time_s) << ", \"kind\": \""
          << flight_event_kind_name(event.kind) << "\"";
      if (event.cell >= 0) out << ", \"cell\": " << event.cell;
      if (event.count != 0) out << ", \"count\": " << event.count;
      if (event.value != 0.0)
        out << ", \"value\": " << json_shortest(event.value);
      if (event.detail != nullptr && *event.detail != '\0')
        out << ", \"detail\": \"" << json_escape(event.detail) << "\"";
      out << "}";
    }
    out << (timeline.steps.empty() ? "" : "\n     ") << "]}";
  }
  out << (timelines.empty() ? "" : "\n  ") << "]\n}\n";
}

bool write_timelines_json(const std::string& path,
                          const std::vector<TaskTimeline>& timelines) {
  std::ofstream out(path);
  if (!out) return false;
  write_timelines_json(out, timelines);
  return out.good();
}

}  // namespace odn::obs
