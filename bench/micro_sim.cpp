// Google-benchmark micro for the discrete-event emulator: one
// EdgeEmulator::run() over the large low-rate scenario's admitted plan
// with a 5 s Poisson window, the shape of one cell's epoch measurement.
// `per_request` is the wall time divided by the requests emulated.
//
//   ./build/bench/micro_sim --benchmark_min_time=0.5
#include <benchmark/benchmark.h>

#include "core/controller.h"
#include "core/scenarios.h"
#include "sim/emulator.h"

namespace {

using namespace odn;

void BM_EmulateLargeLowPoisson(benchmark::State& state) {
  const core::DotInstance instance =
      core::make_large_scenario(core::RequestRate::kLow);
  core::OffloadnnController controller(instance.resources, instance.radio);
  const core::DeploymentPlan plan =
      controller.admit(instance.catalog, instance.tasks);
  sim::EmulatorOptions options;
  options.duration_s = 5.0;
  options.poisson_arrivals = true;
  std::size_t requests = 0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    // A new seed each run, as the engine draws one per cell and epoch.
    options.seed = ++seed;
    sim::EdgeEmulator emulator(plan, instance.radio,
                               instance.resources.compute_capacity_s,
                               options);
    const sim::EmulationReport report = emulator.run();
    requests += report.total_requests;
    benchmark::DoNotOptimize(report.gpu_busy_fraction);
  }
  // Printed in seconds with an SI prefix, e.g. "170ns".
  state.counters["per_request"] = benchmark::Counter(
      static_cast<double>(requests),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EmulateLargeLowPoisson);

}  // namespace

BENCHMARK_MAIN();
