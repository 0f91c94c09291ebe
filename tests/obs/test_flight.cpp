// Flight recorder: ring semantics (eviction, dropped accounting), JSON
// shape, the disabled-is-free contract, and the DESIGN.md §11 determinism
// contract — a flight-enabled serving run dumps byte-identical JSON for
// any ODN_THREADS setting.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenarios.h"
#include "obs/flight.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "util/thread_pool.h"

namespace odn::obs {
namespace {

FlightEvent make_event(double time_s, FlightEventKind kind,
                       std::uint64_t task) {
  FlightEvent event;
  event.time_s = time_s;
  event.kind = kind;
  event.task = task;
  return event;
}

// Every test leaves the global recorder disabled and empty — the fixture
// makes that explicit so a failing assertion cannot leak state into the
// goldens of a same-process run.
class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::global().set_enabled(false);
    FlightRecorder::global().set_capacity(4096);
  }
  void TearDown() override {
    FlightRecorder::global().set_enabled(false);
    FlightRecorder::global().set_capacity(4096);
  }
};

TEST_F(FlightTest, KindNamesAreStableIdentifiers) {
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kArrival), "arrival");
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kAdmission),
               "admission");
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kRetryScheduled),
               "retry_scheduled");
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kBatchSeal),
               "batch_seal");
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kEpochSeal),
               "epoch_seal");
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kAnomaly), "anomaly");
}

TEST_F(FlightTest, DisabledRecordsNothing) {
  FlightRecorder& recorder = FlightRecorder::global();
  ASSERT_FALSE(recorder.enabled());
  flight_record(make_event(1.0, FlightEventKind::kArrival, 7));
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST_F(FlightTest, RecordsInOrderAndAssignsSeq) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.set_enabled(true);
  for (std::uint64_t i = 0; i < 5; ++i)
    flight_record(make_event(static_cast<double>(i),
                             FlightEventKind::kAdmission, i));
  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].task, i);
  }
  EXPECT_EQ(recorder.total_recorded(), 5u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST_F(FlightTest, RingEvictsOldestAndCountsDropped) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.set_capacity(4);
  recorder.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i)
    flight_record(make_event(static_cast<double>(i),
                             FlightEventKind::kArrival, i));
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first: tasks 6..9 with their original seq numbers.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].task, 6 + i);
    EXPECT_EQ(events[i].seq, 6 + i);
  }
}

TEST_F(FlightTest, SetCapacityClampsToOneAndClears) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.set_enabled(true);
  flight_record(make_event(1.0, FlightEventKind::kArrival, 1));
  recorder.set_capacity(0);
  EXPECT_EQ(recorder.capacity(), 1u);
  EXPECT_EQ(recorder.size(), 0u);
  // A resize clears the counters with the events: the ring accounting
  // holds and seq restarts.
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  flight_record(make_event(2.0, FlightEventKind::kArrival, 2));
  flight_record(make_event(3.0, FlightEventKind::kArrival, 3));
  EXPECT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.snapshot().front().task, 3u);
  EXPECT_EQ(recorder.snapshot().front().seq, 1u);
  EXPECT_EQ(recorder.total_recorded(),
            recorder.size() + recorder.dropped());
}

TEST_F(FlightTest, ResetClearsEventsAndCountersKeepsConfig) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.set_capacity(8);
  recorder.set_enabled(true);
  for (int i = 0; i < 12; ++i)
    flight_record(make_event(1.0, FlightEventKind::kArrival, 1));
  recorder.reset();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_TRUE(recorder.enabled());
  // Seq restarts from zero after a reset.
  flight_record(make_event(2.0, FlightEventKind::kArrival, 2));
  EXPECT_EQ(recorder.snapshot().front().seq, 0u);
}

TEST_F(FlightTest, JsonOmitsDefaultFieldsAndKeepsSchema) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.set_enabled(true);
  FlightEvent bare;
  bare.time_s = 1.5;
  bare.kind = FlightEventKind::kEpochSeal;  // no task, no cell, no payload
  flight_record(bare);
  FlightEvent full;
  full.time_s = 2.5;
  full.kind = FlightEventKind::kAdmission;
  full.task = 42;
  full.cell = 3;
  full.count = 2;
  full.value = 0.75;
  full.detail = "downgraded";
  flight_record(full);

  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"schema\": \"odn-flight-record/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"total_recorded\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
  // The bare event's line has no task/cell/count/value/detail keys.
  std::istringstream lines(json);
  std::string line;
  std::string bare_line;
  while (std::getline(lines, line))
    if (line.find("epoch_seal") != std::string::npos) bare_line = line;
  ASSERT_FALSE(bare_line.empty());
  EXPECT_EQ(bare_line.find("task"), std::string::npos);
  EXPECT_EQ(bare_line.find("cell"), std::string::npos);
  EXPECT_EQ(bare_line.find("detail"), std::string::npos);
  // The full event serializes every field.
  EXPECT_NE(json.find("\"task\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"cell\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"detail\": \"downgraded\""), std::string::npos);
}

TEST_F(FlightTest, DumpToPathWritesFileAndReportsFailure) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.set_enabled(true);
  flight_record(make_event(1.0, FlightEventKind::kFault, kNoFlightTask));

  const std::string path =
      ::testing::TempDir() + "/odn_flight_dump_test.json";
  ASSERT_TRUE(dump_flight_record(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), recorder.to_json());
  std::remove(path.c_str());

  EXPECT_FALSE(dump_flight_record("/nonexistent-dir/flight.json"));
}

// §11 determinism: a flight-enabled churn run (sched on, so the ring sees
// admissions, downgrades, preemptions and retries) must dump byte-identical
// JSON for any thread count, and the report bytes must be unchanged by
// recording. `race` labelled: the TSan tree runs this against the pool.
TEST_F(FlightTest, ServingRunDumpIdenticalAcrossThreadCounts) {
  runtime::WorkloadOptions workload;
  workload.horizon_s = 30.0;
  workload.seed = 11;
  workload.arrival_rate_per_s = 1.0;
  workload.mean_holding_s = 12.0;
  workload.qos.enabled = true;
  workload.qos.deadline_tightness = 1.0;
  const runtime::WorkloadTrace trace = runtime::generate_workload(5, workload);

  runtime::RuntimeOptions options;
  options.epoch_s = 10.0;
  options.emulation_window_s = 4.0;
  options.sched.enabled = true;
  const core::DotInstance instance = core::make_small_scenario(5);

  auto run_once = [&](int threads, bool flight) {
    util::set_thread_count(threads);
    FlightRecorder::global().reset();
    FlightRecorder::global().set_enabled(flight);
    runtime::ServingRuntime serving(instance.catalog, instance.resources,
                                    instance.radio, instance.tasks, options);
    const std::string report = serving.run(trace).to_json();
    FlightRecorder::global().set_enabled(false);
    return std::make_pair(report, FlightRecorder::global().to_json());
  };

  const auto [report_off, dump_off] = run_once(1, false);
  const auto [report_serial, dump_serial] = run_once(1, true);
  const auto [report_four, dump_four] = run_once(4, true);
  util::set_thread_count(0);

  // Recording must not perturb the report, and the dump must be
  // thread-count invariant and non-trivial.
  EXPECT_EQ(report_off, report_serial);
  EXPECT_EQ(report_serial, report_four);
  EXPECT_EQ(dump_serial, dump_four);
  EXPECT_GT(FlightRecorder::global().total_recorded(), 0u);
  EXPECT_NE(dump_serial.find("\"kind\": \"admission\""), std::string::npos);
}

}  // namespace
}  // namespace odn::obs
