// Task timelines: journey classification is a second, independent
// implementation of the deadline classifier's bucket precedence — the
// scripted suites drive both over equivalent histories and demand equal
// answers, and the property test runs full sched-on serving runs over
// several seeds, cross-checking every complete journey's fate histogram
// against the report's bucket partition.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenarios.h"
#include "obs/flight.h"
#include "obs/timeline.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "sched/deadline_monitor.h"
#include "util/thread_pool.h"

namespace odn::obs {
namespace {

FlightEvent step(double time_s, FlightEventKind kind,
                 const char* detail = "", double value = 0.0) {
  FlightEvent event;
  event.time_s = time_s;
  event.kind = kind;
  event.task = 1;
  event.detail = detail;
  event.value = value;
  return event;
}

FlightEvent arrival(double time_s, double deadline_s) {
  return step(time_s, FlightEventKind::kArrival, "", deadline_s);
}

TEST(ClassifyJourney, TerminalFatesMatchBucketPrecedence) {
  // Never admitted (still retrying or rejected outright).
  EXPECT_STREQ(classify_journey({arrival(0.0, 5.0)}), "rejected");
  EXPECT_STREQ(classify_journey({arrival(0.0, 5.0),
                                 step(1.0, FlightEventKind::kRejection,
                                      "exhausted")}),
               "rejected");

  // Clean service within deadline.
  EXPECT_STREQ(classify_journey({arrival(0.0, 5.0),
                                 step(1.0, FlightEventKind::kAdmission),
                                 step(8.0, FlightEventKind::kDeparture,
                                      "serving")}),
               "met");

  // Admitted after the admit-by deadline.
  EXPECT_STREQ(classify_journey({arrival(0.0, 5.0),
                                 step(7.0, FlightEventKind::kAdmission),
                                 step(9.0, FlightEventKind::kDeparture,
                                      "serving")}),
               "missed");
  // No deadline annotated (value 0): late admission still counts as met.
  EXPECT_STREQ(classify_journey({arrival(0.0, 0.0),
                                 step(7.0, FlightEventKind::kAdmission),
                                 step(9.0, FlightEventKind::kDeparture,
                                      "serving")}),
               "met");

  // Downgraded admission / ladder reshape while serving.
  EXPECT_STREQ(classify_journey({arrival(0.0, 5.0),
                                 step(1.0, FlightEventKind::kAdmission,
                                      "downgraded"),
                                 step(8.0, FlightEventKind::kDeparture,
                                      "serving")}),
               "downgraded");
  EXPECT_STREQ(classify_journey({arrival(0.0, 5.0),
                                 step(1.0, FlightEventKind::kAdmission),
                                 step(2.0, FlightEventKind::kDowngrade,
                                      "ladder"),
                                 step(8.0, FlightEventKind::kDeparture,
                                      "serving")}),
               "downgraded");

  // Evicted and never served again.
  EXPECT_STREQ(classify_journey({arrival(0.0, 5.0),
                                 step(1.0, FlightEventKind::kAdmission),
                                 step(2.0, FlightEventKind::kPreemption,
                                      "ladder")}),
               "preempted");
  // Fault displacement behaves like a preemption until readmission.
  EXPECT_STREQ(classify_journey({arrival(0.0, 5.0),
                                 step(1.0, FlightEventKind::kAdmission),
                                 step(2.0, FlightEventKind::kDisplacement)}),
               "preempted");
  // Readmission attempts exhausted after an eviction: admitted but not
  // serving and never departed serving -> still the preempted bucket.
  EXPECT_STREQ(classify_journey({arrival(0.0, 5.0),
                                 step(1.0, FlightEventKind::kAdmission),
                                 step(2.0, FlightEventKind::kPreemption,
                                      "ladder"),
                                 step(3.0, FlightEventKind::kRejection,
                                      "sched_exhausted")}),
               "preempted");

  // Evicted then served again: the scar shows as downgraded.
  EXPECT_STREQ(classify_journey({arrival(0.0, 5.0),
                                 step(1.0, FlightEventKind::kAdmission),
                                 step(2.0, FlightEventKind::kPreemption,
                                      "ladder"),
                                 step(3.0, FlightEventKind::kReadmission,
                                      "sched"),
                                 step(8.0, FlightEventKind::kDeparture,
                                      "serving")}),
               "downgraded");
}

// Differential: build the engine's deadline history and the equivalent
// flight journey for the same scripted lives; sched::classify and
// classify_journey are independent implementations and must agree on
// every one.
TEST(ClassifyJourney, AgreesWithDeadlineMonitorOnScriptedHistories) {
  struct Script {
    const char* name;
    // Writes the history the engine would keep; returns whether the job
    // is serving at the end.
    bool (*drive)(sched::DeadlineHistory&);
    std::vector<FlightEvent> journey;
  };
  const double kDeadline = 4.0;
  const std::vector<Script> scripts = {
      {"never admitted", [](sched::DeadlineHistory&) { return false; },
       {arrival(0.0, kDeadline)}},
      {"clean service",
       [](sched::DeadlineHistory& h) {
         h.admit(1.0, false);
         h.departed_serving = true;
         return false;
       },
       {arrival(0.0, kDeadline), step(1.0, FlightEventKind::kAdmission),
        step(8.0, FlightEventKind::kDeparture, "serving")}},
      {"late admission",
       [](sched::DeadlineHistory& h) {
         h.admit(6.0, false);
         h.departed_serving = true;
         return false;
       },
       {arrival(0.0, kDeadline), step(6.0, FlightEventKind::kAdmission),
        step(8.0, FlightEventKind::kDeparture, "serving")}},
      {"downgraded final attempt",
       [](sched::DeadlineHistory& h) {
         h.admit(1.0, true);
         h.departed_serving = true;
         return false;
       },
       {arrival(0.0, kDeadline),
        step(1.0, FlightEventKind::kAdmission, "downgraded"),
        step(8.0, FlightEventKind::kDeparture, "serving")}},
      {"evicted for good",
       [](sched::DeadlineHistory& h) {
         h.admit(1.0, false);
         h.ever_preempted = true;
         return false;
       },
       {arrival(0.0, kDeadline), step(1.0, FlightEventKind::kAdmission),
        step(2.0, FlightEventKind::kPreemption, "ladder"),
        step(3.0, FlightEventKind::kRejection, "sched_exhausted")}},
      {"evicted then readmitted",
       [](sched::DeadlineHistory& h) {
         h.admit(1.0, false);
         h.ever_preempted = true;
         h.admit(3.0, false);
         h.departed_serving = true;
         return false;
       },
       {arrival(0.0, kDeadline), step(1.0, FlightEventKind::kAdmission),
        step(2.0, FlightEventKind::kPreemption, "ladder"),
        step(3.0, FlightEventKind::kReadmission, "sched"),
        step(8.0, FlightEventKind::kDeparture, "serving")}},
      {"serving at the horizon",
       [](sched::DeadlineHistory& h) {
         h.admit(1.0, false);
         return true;
       },
       {arrival(0.0, kDeadline), step(1.0, FlightEventKind::kAdmission)}},
      {"departed while pending", [](sched::DeadlineHistory&) { return false; },
       {arrival(0.0, kDeadline),
        step(2.0, FlightEventKind::kDeparture, "pending")}},
  };

  for (const Script& script : scripts) {
    sched::DeadlineHistory history;
    history.arrival_s = 0.0;
    history.deadline_s = kDeadline;
    const bool serving = script.drive(history);
    EXPECT_STREQ(classify_journey(script.journey),
                 sched::bucket_name(sched::classify(history, serving)))
        << "history: " << script.name;
  }
}

TEST(BuildTimelines, GroupsByTaskAndFlagsTruncation) {
  std::vector<FlightEvent> events;
  FlightEvent e = arrival(0.0, 2.0);
  e.task = 3;
  e.seq = 0;
  events.push_back(e);
  e = step(1.0, FlightEventKind::kAdmission);
  e.task = 3;
  e.seq = 1;
  events.push_back(e);
  // Task 9's arrival was evicted from the ring: first retained step is an
  // admission, so the journey is incomplete.
  e = step(1.5, FlightEventKind::kAdmission);
  e.task = 9;
  e.seq = 2;
  events.push_back(e);
  // No-owner events (epoch seals) are skipped.
  e = step(10.0, FlightEventKind::kEpochSeal);
  e.task = kNoFlightTask;
  e.seq = 3;
  events.push_back(e);

  const std::vector<TaskTimeline> timelines = build_task_timelines(events);
  ASSERT_EQ(timelines.size(), 2u);
  EXPECT_EQ(timelines[0].task, 3u);
  EXPECT_TRUE(timelines[0].complete);
  EXPECT_DOUBLE_EQ(timelines[0].arrival_s, 0.0);
  EXPECT_DOUBLE_EQ(timelines[0].deadline_s, 2.0);
  EXPECT_EQ(timelines[0].steps.size(), 2u);
  EXPECT_EQ(timelines[1].task, 9u);
  EXPECT_FALSE(timelines[1].complete);

  std::ostringstream out;
  write_timelines_json(out, timelines);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"odn-task-timelines/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tasks\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"complete\": false"), std::string::npos);
}

// The §11 acceptance property: for a full sched-on serving run, every
// emitted timeline is complete and the fate histogram equals the
// classifier's bucket partition in the report — over several seeds,
// with and without faults in the workload shape. `race` labelled so the
// TSan tree runs it against the pool.
TEST(TimelineProperty, FateHistogramMatchesMonitorPartitionOverSeeds) {
  const core::DotInstance instance = core::make_small_scenario(5);
  for (const std::uint64_t seed : {3u, 11u, 29u, 41u}) {
    runtime::WorkloadOptions workload;
    workload.horizon_s = 35.0;
    workload.seed = seed;
    workload.arrival_rate_per_s = 1.1;  // overload: rejections + retries
    workload.mean_holding_s = 14.0;
    workload.qos.enabled = true;
    workload.qos.deadline_tightness = 0.8;  // tight: some misses
    const runtime::WorkloadTrace trace =
        runtime::generate_workload(5, workload);

    runtime::RuntimeOptions options;
    options.seed = seed;
    options.epoch_s = 10.0;
    options.emulation_window_s = 4.0;
    options.retry.max_attempts = 2;
    options.retry.downgrade_final_attempt = true;
    options.sched.enabled = true;

    // Alternate thread counts across seeds: the fate cross-check holds
    // for any ODN_THREADS because every record site is serial.
    util::set_thread_count(seed % 2 == 1 ? 4 : 1);
    FlightRecorder& recorder = FlightRecorder::global();
    recorder.set_capacity(1 << 16);
    recorder.reset();
    recorder.set_enabled(true);
    runtime::ServingRuntime serving(instance.catalog, instance.resources,
                                    instance.radio, instance.tasks,
                                    options);
    const runtime::RuntimeReport report = serving.run(trace);
    recorder.set_enabled(false);
    const std::uint64_t dropped = recorder.dropped();
    const std::vector<TaskTimeline> timelines =
        build_task_timelines(recorder.snapshot());
    recorder.reset();
    recorder.set_capacity(4096);

    ASSERT_EQ(dropped, 0u) << "seed " << seed;
    ASSERT_EQ(timelines.size(), trace.arrival_count()) << "seed " << seed;
    std::map<std::string, std::size_t> histogram;
    for (const TaskTimeline& timeline : timelines) {
      ASSERT_TRUE(timeline.complete)
          << "seed " << seed << " task " << timeline.task;
      ++histogram[timeline.fate];
    }
    const sched::SchedStats& sched = report.sched;
    EXPECT_EQ(histogram["met"], sched.met) << "seed " << seed;
    EXPECT_EQ(histogram["missed"], sched.missed) << "seed " << seed;
    EXPECT_EQ(histogram["preempted"], sched.preempted) << "seed " << seed;
    EXPECT_EQ(histogram["downgraded"], sched.downgraded)
        << "seed " << seed;
    EXPECT_EQ(histogram["rejected"], sched.rejected) << "seed " << seed;
  }
  util::set_thread_count(0);
}

}  // namespace
}  // namespace odn::obs
