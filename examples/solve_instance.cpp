// solve_instance — a small command-line tool around the instance file
// format (core/instance_io.h):
//
//   ./solve_instance                       demo: writes the Table IV small
//                                          scenario to a temp file, reads
//                                          it back, solves, prints
//   ./solve_instance FILE                  solve FILE with OffloaDNN
//   ./solve_instance FILE --optimal        solve FILE exhaustively
//   ./solve_instance --export FILE [T]     export the small scenario with
//                                          T tasks (default 5) to FILE
//
// The format round-trips complete DOT problems, so characterized scenarios
// can be archived, edited by hand and re-solved.
#include <cstdint>
#include <iostream>
#include <string>

#include "baseline/semoran.h"
#include "core/instance_io.h"
#include "core/offloadnn_solver.h"
#include "core/optimal_solver.h"
#include "core/scenarios.h"
#include "util/flags.h"
#include "util/fmt.h"
#include "util/record_reader.h"
#include "util/table.h"

namespace {

void print_solution(const odn::core::DotInstance& instance,
                    const odn::core::DotSolution& solution) {
  odn::util::Table table(solution.solver_name + " on '" + instance.name +
                         "'");
  table.set_header({"task", "z", "RBs", "path", "accuracy"});
  for (std::size_t t = 0; t < instance.tasks.size(); ++t) {
    const auto& decision = solution.decisions[t];
    const auto& task = instance.tasks[t];
    if (decision.admitted()) {
      const auto& option = task.options[decision.option_index];
      table.add_row({task.spec.name,
                     odn::util::Table::num(decision.admission_ratio, 2),
                     std::to_string(decision.rbs), option.path.name,
                     odn::util::Table::num(option.accuracy, 3)});
    } else {
      table.add_row({task.spec.name, "0", "-", "(rejected)", "-"});
    }
  }
  table.print(std::cout);
  std::cout << "objective "
            << odn::util::Table::num(solution.cost.objective, 4)
            << ", admitted " << solution.cost.admitted_tasks << "/"
            << instance.tasks.size() << ", memory "
            << odn::util::Table::num(solution.cost.memory_bytes / 1e9, 2)
            << " GB, solve time "
            << odn::util::Table::num(solution.solve_time_s * 1e3, 2)
            << " ms\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace odn;

  util::Flags flags(argc, argv, "[FILE [--optimal] | --export FILE [T]]");
  std::string input_path, export_path;
  std::size_t export_tasks = 0;  // 0 = the default of 5
  bool optimal = false;
  while (flags.next()) {
    if (flags.is("--export")) {
      export_path = flags.text();
    } else if (flags.is("--optimal")) {
      optimal = true;
    } else if (flags.arg().empty() || flags.arg()[0] == '-') {
      flags.unknown();
    } else if (!export_path.empty() && export_tasks == 0) {
      export_tasks = util::parse_count(flags.arg(), SIZE_MAX).value_or(0);
      if (export_tasks == 0)
        flags.fail(util::fmt("--export: bad task count '{}'", flags.arg()));
    } else if (input_path.empty() && export_path.empty()) {
      input_path = flags.arg();
    } else {
      flags.unknown();
    }
  }
  if (!export_path.empty() && (optimal || !input_path.empty()))
    flags.fail("--export takes no input FILE and no --optimal");
  if (optimal && input_path.empty()) flags.fail("--optimal needs a FILE");

  try {
    if (!export_path.empty()) {
      const core::DotInstance instance =
          core::make_small_scenario(export_tasks == 0 ? 5 : export_tasks);
      core::write_instance(instance, export_path);
      std::cout << "Wrote '" << instance.name << "' ("
                << instance.catalog.block_count() << " blocks, "
                << instance.tasks.size() << " tasks) to " << export_path
                << '\n';
      return 0;
    }

    core::DotInstance instance;
    if (!input_path.empty()) {
      instance = core::read_instance_file(input_path);
      std::cout << "Loaded '" << instance.name << "' from " << input_path
                << '\n';
    } else {
      // Demo mode: full round trip through the file format.
      const std::string path = "/tmp/odn_demo_instance.txt";
      core::write_instance(core::make_small_scenario(5), path);
      instance = core::read_instance_file(path);
      std::cout << "Demo: exported the small Table IV scenario to " << path
                << " and re-loaded it.\n\n";
    }

    print_solution(instance, core::OffloadnnSolver{}.solve(instance));
    if (optimal || input_path.empty())
      print_solution(instance, core::OptimalSolver{}.solve(instance));
    print_solution(instance, baseline::SemOranSolver{}.solve(instance));
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
