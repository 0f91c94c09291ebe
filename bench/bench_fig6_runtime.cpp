// Fig. 6 reproduction — average runtime of the optimum vs OffloaDNN in the
// small-scale scenario as the number of inference tasks T varies (1..5).
//
// ODN_TRACE / ODN_METRICS write a Chrome trace and a Prometheus snapshot
// at exit (obs/session.h). The table on stdout is unchanged either way.
#include <iostream>
#include <string>

#include "core/offloadnn_solver.h"
#include "core/optimal_solver.h"
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

  std::cout << "=== Fig. 6: solver runtime, small-scale scenario ===\n\n";

  constexpr int kRepetitions = 5;

  util::Table table("Runtime [s] vs number of inference tasks T");
  table.set_header({"T", "OffloaDNN [s]", "Optimum [s]", "speedup",
                    "branches explored"});

  for (std::size_t num_tasks = 1; num_tasks <= 5; ++num_tasks) {
    const core::DotInstance instance = core::make_small_scenario(num_tasks);
    double heuristic_time = 0.0;
    double optimal_time = 0.0;
    std::size_t branches = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      heuristic_time +=
          core::OffloadnnSolver{}.solve(instance).solve_time_s;
      const core::DotSolution optimal =
          core::OptimalSolver{}.solve(instance);
      optimal_time += optimal.solve_time_s;
      branches = optimal.branches_explored;
    }
    heuristic_time /= kRepetitions;
    optimal_time /= kRepetitions;
    table.add_row({std::to_string(num_tasks),
                   util::Table::num(heuristic_time, 6),
                   util::Table::num(optimal_time, 4),
                   util::Table::num(optimal_time /
                                        std::max(heuristic_time, 1e-9),
                                    0) +
                       "x",
                   std::to_string(branches)});
  }
  table.print(std::cout);
  std::cout << "\nPaper shape: already beyond T = 1 the optimum costs over "
               "an order of magnitude more runtime; the gap grows "
               "exponentially with T while OffloaDNN stays polynomial.\n";
  return 0;
}
