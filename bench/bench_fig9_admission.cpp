// Fig. 9 reproduction — large-scale scenario (20 tasks): per-task admission
// ratio under OffloaDNN (top) and SEM-O-RAN (bottom) for low / medium /
// high request rates.
//
// ODN_TRACE / ODN_METRICS write a Chrome trace and a Prometheus snapshot
// at exit (obs/session.h). The tables on stdout are unchanged either way.
#include <iostream>
#include <string>

#include "baseline/semoran.h"
#include "core/offloadnn_solver.h"
#include "core/scenarios.h"
#include "obs/session.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odn;

  // No flags: any argument is an error rather than silently ignored.
  util::Flags flags(argc, argv,
                    "(no flags; export with ODN_TRACE/ODN_METRICS)");
  while (flags.next()) flags.unknown();
  obs::EnvSession obs_session;

  std::cout << "=== Fig. 9: per-task admission ratio, large scenario ===\n\n";

  const struct {
    core::RequestRate rate;
    const char* label;
  } kLevels[] = {{core::RequestRate::kLow, "low"},
                 {core::RequestRate::kMedium, "medium"},
                 {core::RequestRate::kHigh, "high"}};

  for (const char* solver : {"OffloaDNN", "SEM-O-RAN"}) {
    util::Table table(std::string("Admission ratio per task ID — ") +
                      solver);
    std::vector<std::string> header{"rate"};
    for (int t = 1; t <= 20; ++t) header.push_back(std::to_string(t));
    table.set_header(std::move(header));

    for (const auto& level : kLevels) {
      const core::DotInstance instance =
          core::make_large_scenario(level.rate);
      const core::DotSolution solution =
          std::string(solver) == "OffloaDNN"
              ? core::OffloadnnSolver{}.solve(instance)
              : baseline::SemOranSolver{}.solve(instance);
      std::vector<std::string> row{level.label};
      for (const auto& decision : solution.decisions)
        row.push_back(util::Table::num(decision.admission_ratio, 2));
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "Paper shape: OffloaDNN admits everything at low/medium "
               "load; at high load the top-priority tasks keep ratio 1, a "
               "diminishing fractional tail follows, and the lowest-"
               "priority tasks are rejected. SEM-O-RAN is all-or-nothing: "
               "16 tasks at low/medium (memory-bound, no block sharing), "
               "fewer at high (RB-bound).\n";
  return 0;
}
