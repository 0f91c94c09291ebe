// Dynamic-arrival example — the paper's Sec. III-B closing remark: "the
// formulation can be trivially extended to a dynamic scenario where new
// tasks may need to be incrementally accommodated ... consider the
// training cost and memory occupancy of already-deployed DNN blocks equal
// to zero [and] discount the capacities."
//
// Part 1 (the static wave table): tasks from the large-scale scenario
// arrive in four waves of five, each admitted incrementally — watch the
// shared backbone being paid only once.
//
// Part 2 (the serving runtime): the same task set as churn *templates*
// under a seeded Poisson arrival/departure workload, driven by the
// ServingRuntime with the retry policy on — bounded backoff retries,
// accuracy-downgraded final attempts, epoch-boundary emulated
// measurement and per-priority-class SLO accounting.
//
//   $ ./dynamic_arrivals [--seed N] [--duration S]
#include <cstdint>
#include <iostream>
#include <string>

#include "core/controller.h"
#include "core/scenarios.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odn;

  std::uint64_t seed = 2024;
  double duration_s = 60.0;
  util::Flags flags(argc, argv, "[--seed N] [--duration S]");
  while (flags.next()) {
    if (flags.is("--seed")) seed = flags.count<std::uint64_t>();
    else if (flags.is("--duration")) duration_s = flags.positive();
    else flags.unknown();
  }
  util::set_log_level(util::LogLevel::kWarn);  // the churn loop is chatty

  std::cout << "=== Dynamic task arrivals (incremental admission) ===\n\n";

  const core::DotInstance instance =
      core::make_large_scenario(core::RequestRate::kLow);
  core::OffloadnnController controller(instance.resources, instance.radio);

  util::Table table("Waves of 5 tasks, incremental DOT admission");
  table.set_header({"wave", "tasks admitted", "new blocks", "new memory [GB]",
                    "total memory [GB]", "total RBs", "total compute [s/s]"});

  std::size_t admitted_total = 0;
  for (std::size_t wave = 0; wave < 4; ++wave) {
    std::vector<core::DotTask> requests(
        instance.tasks.begin() + static_cast<std::ptrdiff_t>(wave * 5),
        instance.tasks.begin() + static_cast<std::ptrdiff_t>(wave * 5 + 5));

    const core::DeploymentPlan plan =
        wave == 0 ? controller.admit(instance.catalog, requests)
                  : controller.admit_incremental(instance.catalog, requests);

    std::size_t admitted = 0;
    for (const core::TaskPlan& task : plan.tasks)
      if (task.admitted) ++admitted;
    admitted_total += admitted;

    table.add_row(
        {std::to_string(wave + 1),
         std::to_string(admitted) + "/5",
         std::to_string(plan.deployed_blocks.size()),
         util::Table::num(plan.memory_committed_bytes / 1e9, 3),
         util::Table::num(controller.ledger().memory_used_bytes() / 1e9, 3),
         std::to_string(controller.ledger().rbs_used()) + "/" +
             std::to_string(instance.resources.total_rbs),
         util::Table::num(controller.ledger().compute_used_s(), 3)});
  }
  table.print(std::cout);

  std::cout << "\nAdmitted " << admitted_total
            << "/20 tasks across four waves. Later waves deploy fewer new "
               "blocks and less memory: their paths reuse the shared "
               "backbone blocks deployed by earlier waves — the marginal "
               "cost of one more task keeps falling, which is exactly why "
               "block sharing scales.\n\n";

  // Part 2: long-horizon churn through the serving runtime.
  std::cout << "=== Serving runtime: churn with retries (seed " << seed
            << ", " << duration_s << " s) ===\n\n";

  runtime::WorkloadOptions workload;
  workload.horizon_s = duration_s;
  workload.seed = seed;
  workload.arrival_rate_per_s = 1.0;
  workload.mean_holding_s = 20.0;
  workload.burst_count = 1;
  const runtime::WorkloadTrace trace =
      runtime::generate_workload(instance.tasks.size(), workload);

  runtime::RuntimeOptions options;
  options.seed = seed;
  options.epoch_s = 10.0;
  options.retry.max_attempts = 3;
  options.retry.downgrade_final_attempt = true;

  runtime::ServingRuntime serving(instance.catalog, instance.resources,
                                  instance.radio, instance.tasks, options);
  const runtime::RuntimeReport report = serving.run(trace);

  util::Table churn("Per-priority-class admission lifecycle + measured SLO");
  churn.set_header({"class", "arrivals", "admitted", "via retry",
                    "downgraded", "rejected", "departed", "p95 [ms]",
                    "SLO viol."});
  // Departures and measured latency live on the server's cell; the
  // aggregate merges them with the admission lifecycle.
  for (const runtime::ClassStats& c : report.aggregate_classes()) {
    churn.add_row({c.name, std::to_string(c.arrivals),
                   std::to_string(c.admitted),
                   std::to_string(c.admitted_after_retry),
                   std::to_string(c.admitted_downgraded),
                   std::to_string(c.rejected_final),
                   std::to_string(c.departures),
                   util::Table::num(c.p95_latency_s() * 1e3, 1),
                   std::to_string(c.slo_violations)});
  }
  churn.print(std::cout);

  const cluster::CellReport& server = report.cells.at(0);

  std::cout << "\nProcessed " << report.events_processed << " events ("
            << trace.arrival_count() << " arrivals, "
            << trace.departure_count() << " departures, " << report.epochs
            << " measurement epochs). Peak watermarks: "
            << util::Table::num(server.watermarks.peak_memory_bytes / 1e9, 2)
            << " GB memory, " << server.watermarks.peak_rbs << "/"
            << server.watermarks.rb_capacity << " RBs, "
            << util::Table::num(server.watermarks.peak_compute_s, 2) << "/"
            << util::Table::num(server.watermarks.compute_capacity_s, 2)
            << " s/s compute. " << report.active_at_end
            << " jobs still active at the horizon hold "
            << server.deployed_blocks_at_end
            << " deployed blocks.\nHigher-priority classes are admitted "
               "first by the DOT objective; rejected jobs back off, retry, "
               "and on the final attempt may relax their accuracy bound "
               "instead of being dropped.\n";
  return 0;
}
