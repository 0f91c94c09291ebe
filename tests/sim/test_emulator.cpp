#include "sim/emulator.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/scenarios.h"
#include "../core/test_instances.h"

namespace odn::sim {
namespace {

core::DeploymentPlan plan_for(const core::DotInstance& instance) {
  core::OffloadnnController controller(instance.resources, instance.radio);
  return controller.admit(instance.catalog, instance.tasks);
}

TEST(Emulator, DeterministicArrivalsMeetLatencyBounds) {
  const core::DotInstance instance = core::make_small_scenario(5);
  const core::DeploymentPlan plan = plan_for(instance);
  EdgeEmulator emulator(plan, instance.radio,
                        instance.resources.compute_capacity_s);
  const EmulationReport report = emulator.run();
  ASSERT_EQ(report.tasks.size(), 5u);
  for (const TaskTrace& trace : report.tasks) {
    EXPECT_GT(trace.samples.size(), 10u);
    EXPECT_EQ(trace.bound_violations(), 0u) << trace.task_name;
    EXPECT_LE(trace.max_latency_s(), trace.latency_bound_s);
  }
  EXPECT_EQ(report.total_violations(), 0u);
}

TEST(Emulator, RequestCountMatchesAdmittedRate) {
  const core::DotInstance instance = core::make_small_scenario(2);
  const core::DeploymentPlan plan = plan_for(instance);
  EmulatorOptions options;
  options.duration_s = 10.0;
  EdgeEmulator emulator(plan, instance.radio,
                        instance.resources.compute_capacity_s, options);
  const EmulationReport report = emulator.run();
  for (std::size_t i = 0; i < report.tasks.size(); ++i) {
    // ~rate * duration arrivals (deterministic spacing -> exact +-1).
    const double expected =
        plan.tasks[i].admitted_rate * options.duration_s;
    EXPECT_NEAR(static_cast<double>(report.tasks[i].samples.size()),
                expected, 2.0);
  }
}

TEST(Emulator, LatencyDecomposesIntoPhases) {
  const core::DotInstance instance = core::make_small_scenario(1);
  const core::DeploymentPlan plan = plan_for(instance);
  EdgeEmulator emulator(plan, instance.radio,
                        instance.resources.compute_capacity_s);
  const EmulationReport report = emulator.run();
  for (const LatencySample& s : report.tasks[0].samples) {
    EXPECT_NEAR(s.latency_s,
                s.transmission_s + s.inference_s + s.downlink_s, 1e-9);
    EXPECT_GT(s.transmission_s, 0.0);
    EXPECT_GT(s.inference_s, 0.0);
    EXPECT_GT(s.downlink_s, 0.0);  // default options return the result
  }
}

TEST(Emulator, DownlinkDisabledWhenResultBitsZero) {
  const core::DotInstance instance = core::make_small_scenario(1);
  const core::DeploymentPlan plan = plan_for(instance);
  EmulatorOptions options;
  options.result_bits = 0.0;
  EdgeEmulator emulator(plan, instance.radio,
                        instance.resources.compute_capacity_s, options);
  const EmulationReport report = emulator.run();
  for (const LatencySample& s : report.tasks[0].samples)
    EXPECT_DOUBLE_EQ(s.downlink_s, 0.0);
}

TEST(Emulator, SliceStatisticsPopulated) {
  const core::DotInstance instance = core::make_small_scenario(3);
  const core::DeploymentPlan plan = plan_for(instance);
  EdgeEmulator emulator(plan, instance.radio,
                        instance.resources.compute_capacity_s);
  const EmulationReport report = emulator.run();
  for (const TaskTrace& trace : report.tasks) {
    EXPECT_GT(trace.slice_busy_fraction, 0.0);
    EXPECT_LE(trace.slice_busy_fraction, 1.0 + 1e-9);
    // Deterministic arrivals, slice utilization < 1: no queue builds up.
    EXPECT_EQ(trace.peak_slice_queue, 0u);
  }
}

TEST(Emulator, PoissonBurstsBuildSliceQueues) {
  const core::DotInstance instance = core::make_small_scenario(5);
  const core::DeploymentPlan plan = plan_for(instance);
  EmulatorOptions options;
  options.poisson_arrivals = true;
  options.duration_s = 30.0;
  EdgeEmulator emulator(plan, instance.radio,
                        instance.resources.compute_capacity_s, options);
  const EmulationReport report = emulator.run();
  std::size_t total_peak = 0;
  for (const TaskTrace& trace : report.tasks)
    total_peak += trace.peak_slice_queue;
  EXPECT_GT(total_peak, 0u);
}

TEST(Emulator, UnderloadedLatencyMatchesAnalyticModel) {
  // With deterministic arrivals and no queueing, every sample equals
  // beta/(B*r) + inference time — the controller's expected latency.
  const core::DotInstance instance = core::make_small_scenario(3);
  const core::DeploymentPlan plan = plan_for(instance);
  EdgeEmulator emulator(plan, instance.radio,
                        instance.resources.compute_capacity_s);
  const EmulationReport report = emulator.run();
  std::size_t trace_index = 0;
  for (const core::TaskPlan& task_plan : plan.tasks) {
    if (!task_plan.admitted) continue;
    const TaskTrace& trace = report.tasks[trace_index++];
    EXPECT_NEAR(trace.mean_latency_s(), task_plan.expected_latency_s,
                0.2 * task_plan.expected_latency_s)
        << task_plan.task_name;
  }
}

TEST(Emulator, PoissonArrivalsIntroduceQueueing) {
  const core::DotInstance instance = core::make_small_scenario(5);
  const core::DeploymentPlan plan = plan_for(instance);
  EmulatorOptions deterministic;
  EmulatorOptions poisson;
  poisson.poisson_arrivals = true;
  poisson.duration_s = deterministic.duration_s = 30.0;
  const EmulationReport det_report =
      EdgeEmulator(plan, instance.radio,
                   instance.resources.compute_capacity_s, deterministic)
          .run();
  const EmulationReport poi_report =
      EdgeEmulator(plan, instance.radio,
                   instance.resources.compute_capacity_s, poisson)
          .run();
  // Bursty arrivals queue on the slice: mean latency strictly grows.
  double det_mean = 0.0;
  double poi_mean = 0.0;
  for (const TaskTrace& t : det_report.tasks) det_mean += t.mean_latency_s();
  for (const TaskTrace& t : poi_report.tasks) poi_mean += t.mean_latency_s();
  EXPECT_GT(poi_mean, det_mean);
}

TEST(Emulator, PoissonSeedReproducible) {
  const core::DotInstance instance = core::make_small_scenario(2);
  const core::DeploymentPlan plan = plan_for(instance);
  EmulatorOptions options;
  options.poisson_arrivals = true;
  options.seed = 77;
  const EmulationReport a =
      EdgeEmulator(plan, instance.radio,
                   instance.resources.compute_capacity_s, options)
          .run();
  const EmulationReport b =
      EdgeEmulator(plan, instance.radio,
                   instance.resources.compute_capacity_s, options)
          .run();
  ASSERT_EQ(a.tasks[0].samples.size(), b.tasks[0].samples.size());
  for (std::size_t i = 0; i < a.tasks[0].samples.size(); ++i)
    EXPECT_DOUBLE_EQ(a.tasks[0].samples[i].latency_s,
                     b.tasks[0].samples[i].latency_s);
}

TEST(Emulator, EmptyPlanProducesEmptyReport) {
  const core::DotInstance instance =
      core::testing::infeasible_accuracy_instance();
  const core::DeploymentPlan plan = plan_for(instance);
  EdgeEmulator emulator(plan, instance.radio,
                        instance.resources.compute_capacity_s);
  const EmulationReport report = emulator.run();
  EXPECT_TRUE(report.tasks.empty());
  EXPECT_EQ(report.total_requests, 0u);
}

TEST(Emulator, GpuBusyFractionReasonable) {
  const core::DotInstance instance = core::make_small_scenario(5);
  const core::DeploymentPlan plan = plan_for(instance);
  EdgeEmulator emulator(plan, instance.radio,
                        instance.resources.compute_capacity_s);
  const EmulationReport report = emulator.run();
  EXPECT_GT(report.gpu_busy_fraction, 0.0);
  EXPECT_LT(report.gpu_busy_fraction, 1.0);
}

TEST(Emulator, InvalidDurationThrows) {
  const core::DotInstance instance = core::make_small_scenario(1);
  const core::DeploymentPlan plan = plan_for(instance);
  EmulatorOptions options;
  options.duration_s = 0.0;
  EXPECT_THROW(EdgeEmulator(plan, instance.radio, 1.0, options),
               std::invalid_argument);
}

// A non-finite window would generate arrivals without end, so every input
// that reaches an event time is checked up front.
TEST(Emulator, NonFiniteDurationThrows) {
  const core::DotInstance instance = core::make_small_scenario(1);
  const core::DeploymentPlan plan = plan_for(instance);
  for (const double duration :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    EmulatorOptions options;
    options.duration_s = duration;
    EXPECT_THROW(EdgeEmulator(plan, instance.radio, 1.0, options),
                 std::invalid_argument)
        << duration;
  }
}

TEST(Emulator, NonFiniteOrNegativeResultBitsThrows) {
  const core::DotInstance instance = core::make_small_scenario(1);
  const core::DeploymentPlan plan = plan_for(instance);
  for (const double bits : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), -1.0}) {
    EmulatorOptions options;
    options.result_bits = bits;
    EXPECT_THROW(EdgeEmulator(plan, instance.radio, 1.0, options),
                 std::invalid_argument)
        << bits;
  }
}

TEST(Emulator, NonFiniteOrNegativeBatchWindowThrows) {
  const core::DotInstance instance = core::make_small_scenario(1);
  const core::DeploymentPlan plan = plan_for(instance);
  // Checked with batching off too: the window is an event-time offset.
  for (const bool enabled : {false, true}) {
    for (const double window : {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -0.5}) {
      EmulatorOptions options;
      options.batching.enabled = enabled;
      options.batching.window_s = window;
      EXPECT_THROW(EdgeEmulator(plan, instance.radio, 1.0, options),
                   std::invalid_argument)
          << enabled << " " << window;
    }
  }
}

TEST(Emulator, NonFiniteOrNegativeComputeCapacityThrows) {
  const core::DotInstance instance = core::make_small_scenario(1);
  const core::DeploymentPlan plan = plan_for(instance);
  for (const double capacity : {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -2.0})
    EXPECT_THROW(EdgeEmulator(plan, instance.radio, capacity),
                 std::invalid_argument)
        << capacity;
}

// Each bad admitted-task field throws with the task's name in the message;
// the same value on a task that was not admitted is never read.
void expect_task_field_rejected(double core::TaskPlan::*field,
                                const std::string& name) {
  const core::DotInstance instance = core::make_small_scenario(2);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    core::DeploymentPlan plan = plan_for(instance);
    ASSERT_TRUE(plan.tasks[1].admitted);
    plan.tasks[1].*field = bad;
    try {
      EdgeEmulator emulator(plan, instance.radio, 1.0);
      ADD_FAILURE() << name << " = " << bad << " was accepted";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(plan.tasks[1].task_name), std::string::npos)
          << message;
      EXPECT_NE(message.find(name), std::string::npos) << message;
    }
    plan.tasks[1].admitted = false;
    EXPECT_NO_THROW(EdgeEmulator(plan, instance.radio, 1.0));
  }
}

TEST(Emulator, NonFiniteOrNegativeAdmittedRateThrows) {
  expect_task_field_rejected(&core::TaskPlan::admitted_rate,
                             "admitted_rate");
}

TEST(Emulator, NonFiniteOrNegativeInferenceTimeThrows) {
  expect_task_field_rejected(&core::TaskPlan::inference_time_s,
                             "inference_time_s");
}

TEST(Emulator, NonFiniteOrNegativeInputBitsThrows) {
  expect_task_field_rejected(&core::TaskPlan::input_bits, "input_bits");
}

TEST(TaskTrace, StatisticsHelpers) {
  TaskTrace trace;
  trace.latency_bound_s = 0.25;
  for (const double latency : {0.1, 0.2, 0.3, 0.15}) {
    LatencySample sample;
    sample.latency_s = latency;
    trace.samples.push_back(sample);
  }
  EXPECT_NEAR(trace.mean_latency_s(), 0.1875, 1e-12);
  EXPECT_DOUBLE_EQ(trace.max_latency_s(), 0.3);
  EXPECT_EQ(trace.bound_violations(), 1u);
  const auto smoothed = trace.smoothed_latencies(3);
  ASSERT_EQ(smoothed.size(), 4u);
  EXPECT_NEAR(smoothed[1], (0.1 + 0.2 + 0.3) / 3.0, 1e-12);
}

TEST(TaskTrace, EmptyTraceSafeDefaults) {
  const TaskTrace trace;
  EXPECT_DOUBLE_EQ(trace.mean_latency_s(), 0.0);
  EXPECT_DOUBLE_EQ(trace.max_latency_s(), 0.0);
  EXPECT_EQ(trace.bound_violations(), 0u);
}

}  // namespace
}  // namespace odn::sim
