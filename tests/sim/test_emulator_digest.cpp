// Pins the emulator's output bytes. Every field of EmulationReport — the
// six doubles of every sample, each trace's slice statistics, the GPU busy
// fraction and the batch counters — is hashed over a grid of scenarios,
// arrival processes, downlink payloads, batching windows, saturated
// compute and same-instant ties. A change to the event calendar or the
// handlers' arithmetic that moves any bit changes a digest.
//
// The digests pin -O3 arithmetic (like the golden reports), hence the
// `golden` label: an -O0 coverage tree excludes them.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scenarios.h"
#include "sim/emulator.h"

namespace odn::sim {
namespace {

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (word >> (8 * byte)) & 0xffu;
      state_ *= 0x100000001b3ull;
    }
  }
  void add(double value) noexcept { add(std::bit_cast<std::uint64_t>(value)); }
  void add_count(std::size_t value) noexcept {
    add(static_cast<std::uint64_t>(value));
  }
  std::string hex() const {
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(state_));
    return text;
  }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

void hash_report(Digest& digest, const EmulationReport& report) {
  digest.add_count(report.tasks.size());
  for (const TaskTrace& trace : report.tasks) {
    digest.add_count(trace.samples.size());
    for (const LatencySample& s : trace.samples) {
      digest.add(s.arrival_time_s);
      digest.add(s.completion_time_s);
      digest.add(s.latency_s);
      digest.add(s.transmission_s);
      digest.add(s.inference_s);
      digest.add(s.downlink_s);
    }
    digest.add(trace.slice_busy_fraction);
    digest.add_count(trace.peak_slice_queue);
  }
  digest.add(report.gpu_busy_fraction);
  digest.add_count(report.total_requests);
  digest.add_count(report.batch_dispatches);
  digest.add_count(report.coalesced_requests);
  digest.add_count(report.max_batch_observed);
}

struct Scenario {
  core::DeploymentPlan plan;
  edge::RadioModel radio;
  double compute_capacity_s;
};

Scenario admit(const core::DotInstance& instance) {
  core::OffloadnnController controller(instance.resources, instance.radio);
  return Scenario{controller.admit(instance.catalog, instance.tasks),
                  instance.radio, instance.resources.compute_capacity_s};
}

// Batching off, then on with short, medium and long windows.
std::vector<model::BatchingOptions> batching_grid() {
  std::vector<model::BatchingOptions> grid(4);
  const double windows[] = {0.01, 0.05, 0.2};
  const std::size_t max_batches[] = {4, 8, 2};
  for (std::size_t i = 0; i < 3; ++i) {
    grid[i + 1].enabled = true;
    grid[i + 1].window_s = windows[i];
    grid[i + 1].max_batch = max_batches[i];
  }
  return grid;
}

// Arrivals x result payload x batching, at the scenario's own capacity.
std::string grid_digest(const Scenario& scenario, bool poisson) {
  Digest digest;
  for (const double result_bits : {EmulatorOptions{}.result_bits, 0.0}) {
    for (const model::BatchingOptions& batching : batching_grid()) {
      EmulatorOptions options;
      options.duration_s = 5.0;
      options.seed = 31;
      options.poisson_arrivals = poisson;
      options.result_bits = result_bits;
      options.batching = batching;
      hash_report(digest, EdgeEmulator(scenario.plan, scenario.radio,
                                       scenario.compute_capacity_s, options)
                              .run());
    }
  }
  return digest.hex();
}

// Capacity below 1 leaves one executor for every trace. Inference times
// are scaled so the offered load is just under and well over what that
// executor serves, so the GPU queue builds and (at 1.5) saturates.
std::string saturated_digest(const Scenario& scenario) {
  double offered = 0.0;
  for (const core::TaskPlan& task : scenario.plan.tasks)
    if (task.admitted) offered += task.admitted_rate * task.inference_time_s;
  Digest digest;
  for (const double load : {0.95, 1.5}) {
    core::DeploymentPlan plan = scenario.plan;
    for (core::TaskPlan& task : plan.tasks)
      task.inference_time_s *= load / offered;
    for (const model::BatchingOptions& batching : batching_grid()) {
      EmulatorOptions options;
      options.duration_s = 5.0;
      options.seed = 5;
      options.poisson_arrivals = true;
      options.batching = batching;
      const EmulationReport report =
          EdgeEmulator(plan, scenario.radio, 0.5, options).run();
      if (load > 1.0 && !batching.enabled) {
        EXPECT_GT(report.gpu_busy_fraction, 0.9);
      }
      hash_report(digest, report);
    }
  }
  return digest.hex();
}

const Scenario& large_low() {
  static const Scenario scenario =
      admit(core::make_large_scenario(core::RequestRate::kLow));
  return scenario;
}
const Scenario& large_high() {
  static const Scenario scenario =
      admit(core::make_large_scenario(core::RequestRate::kHigh));
  return scenario;
}
const Scenario& small() {
  static const Scenario scenario = admit(core::make_small_scenario(5));
  return scenario;
}

TEST(EmulatorDigest, LargeLowRate) {
  EXPECT_EQ(grid_digest(large_low(), true), "1bca1864605dd669");
  EXPECT_EQ(grid_digest(large_low(), false), "30db539f9066e56a");
  EXPECT_EQ(saturated_digest(large_low()), "7ebcc4b50e605a83");
}

TEST(EmulatorDigest, LargeHighRate) {
  EXPECT_EQ(grid_digest(large_high(), true), "9184c4643f76993d");
  EXPECT_EQ(grid_digest(large_high(), false), "deb59cefdb5f2447");
  EXPECT_EQ(saturated_digest(large_high()), "29c30d9ffb6e8d09");
}

TEST(EmulatorDigest, SmallScenario) {
  EXPECT_EQ(grid_digest(small(), true), "b9a18191da2a7581");
  EXPECT_EQ(grid_digest(small(), false), "19f99e62abc9d859");
  EXPECT_EQ(saturated_digest(small()), "b3f5e2411b1a153f");
}

// Six copies of one admitted task at one rate: deterministic arrivals and
// equal transmission times put several events at the same instant, so the
// calendar's sequence tie-break decides their order.
TEST(EmulatorDigest, SameInstantTiesBreakBySequence) {
  const Scenario& source = small();
  Scenario ties{{}, source.radio, source.compute_capacity_s};
  for (const core::TaskPlan& task : source.plan.tasks) {
    if (!task.admitted) continue;
    for (std::uint64_t copy = 0; copy < 6; ++copy) {
      ties.plan.tasks.push_back(task);
      ties.plan.tasks.back().task_name += "#" + std::to_string(copy);
      ties.plan.tasks.back().correlation = copy;
    }
    break;
  }
  ASSERT_EQ(ties.plan.tasks.size(), 6u);
  EXPECT_EQ(grid_digest(ties, false), "141de3dcd8cc1d6b");
  EXPECT_EQ(saturated_digest(ties), "cabd098b17e4032c");
}

}  // namespace
}  // namespace odn::sim
