// Emulator batching: the disabled-is-a-strict-no-op contract, max_batch=1
// degeneracy (every dispatch carries one request, exactly as with
// batching off), genuine coalescing under same-path load with the
// aggregation window, batch accounting conservation, and determinism
// across thread counts.
#include "sim/emulator.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/scenarios.h"
#include "obs/flight.h"
#include "util/thread_pool.h"

namespace odn::sim {
namespace {

core::DeploymentPlan plan_for(const core::DotInstance& instance) {
  core::OffloadnnController controller(instance.resources, instance.radio);
  return controller.admit(instance.catalog, instance.tasks);
}

EmulationReport run_mixed(const EmulatorOptions& options,
                          std::size_t tasks = 8) {
  const core::DotInstance instance =
      core::make_mixed_scenario(tasks, core::RequestRate::kMedium);
  const core::DeploymentPlan plan = plan_for(instance);
  EdgeEmulator emulator(plan, instance.radio,
                        instance.resources.compute_capacity_s, options);
  return emulator.run();
}

void expect_identical_samples(const EmulationReport& a,
                              const EmulationReport& b) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    SCOPED_TRACE(a.tasks[t].task_name);
    ASSERT_EQ(a.tasks[t].samples.size(), b.tasks[t].samples.size());
    ASSERT_EQ(std::memcmp(a.tasks[t].samples.data(),
                          b.tasks[t].samples.data(),
                          a.tasks[t].samples.size() * sizeof(LatencySample)),
              0)
        << "latency samples differ";
  }
}

TEST(EmulatorBatching, DisabledIsStrictNoOp) {
  EmulatorOptions baseline;  // batching defaulted off
  EmulatorOptions disabled;
  disabled.batching.enabled = false;
  disabled.batching.max_batch = 4;  // ignored while disabled
  disabled.batching.window_s = 0.5;
  const EmulationReport a = run_mixed(baseline);
  const EmulationReport b = run_mixed(disabled);
  expect_identical_samples(a, b);
  EXPECT_EQ(b.batch_dispatches, 0u);
  EXPECT_EQ(b.coalesced_requests, 0u);
  EXPECT_EQ(b.max_batch_observed, 0u);
}

TEST(EmulatorBatching, MaxBatchOneDispatchesEveryRequestAlone) {
  EmulatorOptions options;
  options.batching.enabled = true;
  options.batching.max_batch = 1;
  const EmulationReport report = run_mixed(options);
  EXPECT_EQ(report.batch_dispatches, report.total_requests);
  EXPECT_EQ(report.coalesced_requests, 0u);
  EXPECT_EQ(report.max_batch_observed, 1u);
}

// Batching off is the batch path with one request per batch: batching on
// with max_batch = 1 must emulate the same requests at the same times,
// for deterministic and bursty arrivals alike.
TEST(EmulatorBatching, MaxBatchOneMatchesBatchingOff) {
  for (const bool poisson : {false, true}) {
    SCOPED_TRACE(poisson ? "poisson" : "deterministic");
    EmulatorOptions off;
    off.poisson_arrivals = poisson;
    EmulatorOptions one = off;
    one.batching.enabled = true;
    one.batching.max_batch = 1;
    const EmulationReport a = run_mixed(off);
    const EmulationReport b = run_mixed(one);
    ASSERT_GT(a.total_requests, 0u);
    expect_identical_samples(a, b);
    EXPECT_EQ(a.total_requests, b.total_requests);
    EXPECT_EQ(a.gpu_busy_fraction, b.gpu_busy_fraction);
    for (std::size_t t = 0; t < a.tasks.size(); ++t) {
      EXPECT_EQ(a.tasks[t].slice_busy_fraction,
                b.tasks[t].slice_busy_fraction);
      EXPECT_EQ(a.tasks[t].peak_slice_queue, b.tasks[t].peak_slice_queue);
    }
  }
}

// Batch seals are flight-recorded only when batching is on.
TEST(EmulatorBatching, DisabledRecordsNoBatchSeals) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  const auto seals = [&](const EmulatorOptions& options) {
    recorder.reset();
    recorder.set_enabled(true);
    (void)run_mixed(options);
    recorder.set_enabled(false);
    std::size_t count = 0;
    for (const obs::FlightEvent& event : recorder.snapshot())
      if (event.kind == obs::FlightEventKind::kBatchSeal) ++count;
    recorder.reset();
    return count;
  };
  EmulatorOptions off;
  EXPECT_EQ(seals(off), 0u);
  EmulatorOptions on;
  on.batching.enabled = true;
  EXPECT_GT(seals(on), 0u);
}

TEST(EmulatorBatching, CoalescesSamePathRequestsWithinWindow) {
  EmulatorOptions options;
  options.duration_s = 30.0;
  options.batching.enabled = true;
  options.batching.max_batch = 8;
  options.batching.window_s = 0.25;
  const EmulationReport report = run_mixed(options);

  EXPECT_GT(report.batch_dispatches, 0u);
  EXPECT_GT(report.coalesced_requests, 0u);
  EXPECT_GT(report.max_batch_observed, 1u);
  EXPECT_LE(report.max_batch_observed, options.batching.max_batch);
  // Conservation: every completed request rode exactly one dispatch.
  std::size_t completed = 0;
  for (const TaskTrace& trace : report.tasks) completed += trace.samples.size();
  EXPECT_EQ(report.batch_dispatches + report.coalesced_requests, completed);
  // Coalescing strictly reduces dispatches.
  EXPECT_LT(report.batch_dispatches, completed);
}

TEST(EmulatorBatching, ValidatesOptionsWhenEnabled) {
  const core::DotInstance instance =
      core::make_mixed_scenario(4, core::RequestRate::kMedium);
  const core::DeploymentPlan plan = plan_for(instance);
  EmulatorOptions options;
  options.batching.enabled = true;
  options.batching.window_s = 0.0;
  EXPECT_THROW(EdgeEmulator(plan, instance.radio,
                            instance.resources.compute_capacity_s, options),
               std::invalid_argument);
  // The same malformed fields pass when batching stays off (never read).
  options.batching.enabled = false;
  EXPECT_NO_THROW(EdgeEmulator(plan, instance.radio,
                               instance.resources.compute_capacity_s,
                               options));
}

TEST(EmulatorBatching, DeterministicAcrossThreadCounts) {
  EmulatorOptions options;
  options.batching.enabled = true;
  options.batching.window_s = 0.25;
  util::set_thread_count(1);
  const EmulationReport serial = run_mixed(options);
  util::set_thread_count(8);
  const EmulationReport parallel = run_mixed(options);
  util::set_thread_count(0);
  expect_identical_samples(serial, parallel);
  EXPECT_EQ(serial.batch_dispatches, parallel.batch_dispatches);
  EXPECT_EQ(serial.coalesced_requests, parallel.coalesced_requests);
  EXPECT_EQ(serial.max_batch_observed, parallel.max_batch_observed);
}

}  // namespace
}  // namespace odn::sim
