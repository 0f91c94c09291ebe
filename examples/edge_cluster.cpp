// Edge-cluster example — the large-scale task set served by a federation
// of heterogeneous cells behind the ClusterDispatcher. Shows the three
// placement policies side by side on the same seeded churn workload:
// where jobs land, how often the preferred cell rejects and spillover
// saves the admission, and how flash-crowd migration sheds low-priority
// jobs from SLO-violating cells.
//
//   $ ./edge_cluster [--cells N] [--seed S] [--duration S]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>

#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "runtime/workload.h"
#include "util/flags.h"
#include "util/fmt.h"
#include "util/logging.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odn;

  std::size_t cells = 3;
  std::uint64_t seed = 2024;
  double duration_s = 40.0;
  util::Flags flags(argc, argv, "[--cells N] [--seed S] [--duration S]");
  while (flags.next()) {
    if (flags.is("--cells")) cells = flags.count<std::size_t>(1, 4096);
    else if (flags.is("--seed")) seed = flags.count<std::uint64_t>();
    else if (flags.is("--duration")) duration_s = flags.positive();
    else flags.unknown();
  }
  util::set_log_level(util::LogLevel::kWarn);

  const core::DotInstance scenario =
      core::make_large_scenario(core::RequestRate::kLow);

  // Shard the single-server envelope into slightly over-provisioned cells.
  const edge::EdgeResources base =
      scenario.resources.scaled(1.3 / static_cast<double>(cells));

  runtime::WorkloadOptions workload;
  workload.horizon_s = duration_s;
  workload.seed = seed;
  workload.arrival_rate_per_s = 1.2;
  workload.mean_holding_s = 25.0;
  workload.burst_count = 1;
  const runtime::WorkloadTrace trace =
      runtime::generate_workload(scenario.tasks.size(), workload);

  std::cout << "=== Edge cluster: " << cells << " heterogeneous cells, "
            << trace.arrival_count() << " arrivals over " << duration_s
            << " s ===\n\n";

  util::Table table(
      "Placement policies on the same seeded churn workload");
  table.set_header({"policy", "admitted", "rejected", "spillover",
                    "migrations", "SLO violations", "p95 worst cell [ms]"});

  for (const std::string policy :
       {"first_fit", "least_loaded", "cost_probe"}) {
    cluster::ClusterOptions options;
    options.seed = seed;
    options.epoch_s = 10.0;
    options.emulation_window_s = 4.0;
    options.dispatch.policy = cluster::parse_placement_policy(policy);

    cluster::ClusterRuntime runtime(
        scenario.catalog, cluster::make_cells(cells, base, seed),
        scenario.radio, scenario.tasks, options);
    const cluster::ClusterReport report = runtime.run(trace);

    std::size_t spillover = 0;
    double worst_p95 = 0.0;
    for (const cluster::CellReport& cell : report.cells) {
      spillover += cell.admitted_spillover;
      for (const runtime::ClassStats& c : cell.classes)
        worst_p95 = std::max(worst_p95, c.p95_latency_s());
    }
    table.add_row({policy, util::fmt("{}", report.total_admitted()),
                   util::fmt("{}", report.total_rejected()),
                   util::fmt("{}", spillover),
                   util::fmt("{}/{}", report.migration.migrated,
                             report.migration.attempted),
                   util::fmt("{}", report.total_slo_violations()),
                   util::fmt("{:.1f}", worst_p95 * 1e3)});
  }
  table.print(std::cout);

  std::cout << "\nSpillover rescues admissions the preferred cell rejects; "
               "migration drains\nSLO-violating cells into siblings with "
               "headroom. Full per-cell accounting:\n"
               "  ./bench_churn --cells "
            << cells << " --seed " << seed << "\n";
  return 0;
}
