// Transformer serving example — the heterogeneous model catalog end to
// end: a mixed ResNet/transformer catalog (transformer tasks carry
// early-exit paths) is solved once so we can see which exit point DOT
// picks per task, then served under churn through the ServingRuntime with
// epoch-boundary request batching on, and the per-task exit-point
// selection plus the SLO accounting are printed as a small JSON document.
//
//   $ ./transformer_serving [--seed N] [--duration S] [--tasks T]
//       [--no-batching]
#include <cstdint>
#include <iostream>
#include <string>

#include "core/offloadnn_solver.h"
#include "core/scenarios.h"
#include "edge/dnn_catalog.h"
#include "runtime/serving_runtime.h"
#include "runtime/stats.h"
#include "runtime/workload.h"
#include "util/flags.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace odn;

  std::uint64_t seed = 7;
  double duration_s = 60.0;
  std::size_t num_tasks = 12;
  bool batching = true;
  util::Flags flags(argc, argv,
                    "[--seed N] [--duration S] [--tasks T] [--no-batching]");
  while (flags.next()) {
    if (flags.is("--seed")) seed = flags.count<std::uint64_t>();
    else if (flags.is("--duration")) duration_s = flags.positive();
    else if (flags.is("--tasks")) num_tasks = flags.count<std::size_t>(1);
    else if (flags.is("--no-batching")) batching = false;
    else flags.unknown();
  }
  util::set_log_level(util::LogLevel::kWarn);

  const core::DotInstance scenario =
      core::make_mixed_scenario(num_tasks, core::RequestRate::kMedium);

  // One-shot DOT solve: which architecture and exit point does the solver
  // pick for each task when everything arrives at once?
  const core::DotSolution solution =
      core::OffloadnnSolver{}.solve(scenario);

  std::cout << "{\n  \"exit_point_selection\": [\n";
  for (std::size_t t = 0; t < scenario.tasks.size(); ++t) {
    const core::DotTask& task = scenario.tasks[t];
    const core::TaskDecision& decision = solution.decisions[t];
    std::cout << "    {\"task\": \"" << task.spec.name << "\"";
    if (decision.admitted()) {
      const core::PathOption& option = task.options[decision.option_index];
      std::cout << ", \"admitted\": true"
                << ", \"path\": \"" << option.path.name << "\""
                << ", \"architecture\": \""
                << edge::architecture_name(
                       scenario.catalog.path_architecture(option.path))
                << "\""
                << ", \"blocks\": " << option.path.blocks.size()
                << ", \"accuracy\": "
                << runtime::json_double(option.accuracy)
                << ", \"admission_ratio\": "
                << runtime::json_double(decision.admission_ratio);
    } else {
      std::cout << ", \"admitted\": false";
    }
    std::cout << "}" << (t + 1 < scenario.tasks.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n";

  // Long-horizon churn over the same catalog, batching on by default.
  runtime::WorkloadOptions workload;
  workload.horizon_s = duration_s;
  workload.seed = seed;
  workload.arrival_rate_per_s = 0.8;
  workload.mean_holding_s = 20.0;
  const runtime::WorkloadTrace trace =
      runtime::generate_workload(scenario.tasks.size(), workload);

  runtime::RuntimeOptions options;
  options.seed = seed;
  options.epoch_s = 10.0;
  options.emulation_window_s = 5.0;
  options.retry.max_attempts = 3;
  options.retry.backoff_s = 2.0;
  options.batching.enabled = batching;

  runtime::ServingRuntime serving(scenario.catalog, scenario.resources,
                                  scenario.radio, scenario.tasks, options);
  const runtime::RuntimeReport report = serving.run(trace);

  std::cout << "  \"serving\": {\n";
  std::cout << "    \"trace\": \"" << report.trace_name << "\",\n";
  std::cout << "    \"arrivals\": " << report.total_arrivals() << ",\n";
  std::cout << "    \"admitted\": " << report.total_admitted() << ",\n";
  std::cout << "    \"slo_violations\": " << report.total_slo_violations()
            << ",\n";
  std::cout << "    \"epochs\": " << report.epochs << ",\n";
  std::cout << "    \"batching\": {\"enabled\": "
            << (batching ? "true" : "false");
  if (batching) {
    std::cout << ", \"dispatches\": " << report.batching.dispatches
              << ", \"coalesced_requests\": "
              << report.batching.coalesced_requests
              << ", \"max_batch\": " << report.batching.max_batch
              << ", \"probe_scale_min\": "
              << runtime::json_double(report.batching.probe_scale_min);
  }
  std::cout << "}\n";
  std::cout << "  }\n}\n";

  std::cerr << "transformer_serving: " << report.total_admitted() << "/"
            << report.total_arrivals() << " jobs admitted under churn\n";
  return 0;
}
