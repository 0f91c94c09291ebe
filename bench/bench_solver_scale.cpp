// Solver scaling bench (DESIGN.md §8): N equal cells behind the
// ClusterDispatcher's cost_probe policy serving T active tasks, churned by
// a bounded fraction per epoch. Runs one seeded churn per task count and
// times the initial fill and each epoch. Every probe and admission solves
// cold; a cost_probe admission commits the plan its probe solved.
//
//   $ ./bench_solver_scale [--tasks T1,T2,...] [--cells N] [--epochs E]
//                          [--churn F] [--seed S] [--types K]
//                          [--out report.json]
//
// Per-epoch work: round(F*T) departures + the same number of fresh
// arrivals, each arrival fanning one probe out per cell. Epoch wall times
// exclude the initial T-task fill (reported separately as fill_s).
//
// Workload shape: the T active tasks are drawn from a bounded pool of K
// task *types* (--types, default 8; 0 = every task unique) — many users
// running the same bounded set of vision configurations, differing only
// in task name.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/dispatcher.h"
#include "core/scenarios.h"
#include "obs/session.h"
#include "util/flags.h"
#include "util/fmt.h"
#include "util/logging.h"
#include "util/record_reader.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

struct RunResult {
  double fill_s = 0.0;
  std::vector<double> epoch_s;
  std::size_t admitted = 0;

  double mean_epoch_s() const {
    if (epoch_s.empty()) return 0.0;
    double total = 0.0;
    for (const double s : epoch_s) total += s;
    return total / static_cast<double>(epoch_s.size());
  }
};

// One full churn run.
RunResult run_churn(const odn::core::DotInstance& world,
                    const odn::edge::EdgeResources& cell_resources,
                    std::size_t cells, std::size_t epochs, double churn,
                    std::uint64_t seed, std::size_t types) {
  using namespace odn;

  // The bounded task-type pool: K evenly spaced templates out of the
  // scenario's task list (0 = all of them, each its own type). Arrivals
  // clone a pool entry under a per-user name.
  std::vector<core::DotTask> pool;
  if (types == 0 || types >= world.tasks.size()) {
    pool = world.tasks;
  } else {
    pool.reserve(types);
    for (std::size_t k = 0; k < types; ++k)
      pool.push_back(world.tasks[k * world.tasks.size() / types]);
  }
  core::OffloadnnController::Options controller_options;
  controller_options.alpha = world.alpha;

  std::vector<cluster::CellSpec> specs;
  specs.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i)
    specs.push_back(
        cluster::CellSpec{"cell-" + std::to_string(i), cell_resources});
  cluster::ClusterDispatcher dispatcher(
      std::move(specs), world.radio, controller_options,
      {.policy = cluster::PlacementPolicy::kCostProbe});

  RunResult result;
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xA5A5);
  std::vector<std::string> active;
  std::size_t fresh_counter = 0;

  const auto admit_one = [&](const core::DotTask& task) {
    if (dispatcher.admit(world.catalog, task).admitted) {
      active.push_back(task.spec.name);
      ++result.admitted;
    }
  };

  // Fill: the initial T-task working set, round-robin over the type pool.
  util::Stopwatch fill_watch;
  for (std::size_t i = 0; i < world.tasks.size(); ++i) {
    core::DotTask task = pool[i % pool.size()];
    task.spec.name = "user-" + std::to_string(i);
    admit_one(task);
  }
  result.fill_s = fill_watch.elapsed_seconds();

  const auto churn_count = static_cast<std::size_t>(
      std::llround(churn * static_cast<double>(world.tasks.size())));
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    util::Stopwatch epoch_watch;
    for (std::size_t c = 0; c < churn_count && !active.empty(); ++c) {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(active.size()) - 1));
      dispatcher.release(active[pick]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    for (std::size_t c = 0; c < churn_count; ++c) {
      core::DotTask task = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      task.spec.name = "fresh-" + std::to_string(fresh_counter++);
      admit_one(task);
    }
    result.epoch_s.push_back(epoch_watch.elapsed_seconds());
  }
  return result;
}

void write_epochs(std::ostream& out, const std::vector<double>& epochs) {
  out << "[";
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.6f", epochs[i]);
    out << (i == 0 ? "" : ",") << buffer;
  }
  out << "]";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace odn;
  obs::EnvSession obs_session;

  std::string tasks_arg = "400";
  std::size_t cells = 8;
  std::size_t epochs = 4;
  double churn = 0.1;
  std::uint64_t seed = 7;
  std::size_t types = 8;
  std::string out_path;
  util::Flags flags(argc, argv,
                    "[--tasks T1,T2,...] [--cells N] [--epochs E] [--churn F]"
                    " [--seed S] [--types K] [--out report.json]");
  while (flags.next()) {
    if (flags.is("--tasks")) tasks_arg = flags.text();
    else if (flags.is("--cells")) cells = flags.count<std::size_t>(1);
    else if (flags.is("--epochs")) epochs = flags.count<std::size_t>();
    else if (flags.is("--churn")) churn = flags.number();
    else if (flags.is("--seed")) seed = flags.count<std::uint64_t>();
    else if (flags.is("--types")) types = flags.count<std::size_t>();
    else if (flags.is("--out")) out_path = flags.text();
    else flags.unknown();
  }
  if (churn < 0.0 || churn > 1.0)
    flags.fail(util::fmt("--churn: bad value '{}' (want a number in [0, 1])",
                         churn));

  // --tasks is a comma-separated list of task counts, each a count token.
  std::vector<std::size_t> sweep;
  for (std::size_t begin = 0; begin <= tasks_arg.size();) {
    const std::size_t end = std::min(tasks_arg.find(',', begin),
                                     tasks_arg.size());
    const std::string_view item =
        std::string_view(tasks_arg).substr(begin, end - begin);
    const std::optional<std::uint64_t> tasks =
        util::parse_count(item, std::numeric_limits<std::size_t>::max());
    if (!tasks || *tasks == 0)
      flags.fail(util::fmt("--tasks: bad task count '{}' in '{}'", item,
                           tasks_arg));
    sweep.push_back(static_cast<std::size_t>(*tasks));
    begin = end + 1;
  }

  util::set_log_level(util::LogLevel::kWarn);

  std::ostringstream report;
  report << "{\"bench\":\"solver_scale\",\"cells\":" << cells
         << ",\"epochs\":" << epochs << ",\"churn\":" << churn
         << ",\"seed\":" << seed << ",\"types\":" << types << ",\"sweep\":[";
  bool first = true;

  for (const std::size_t tasks : sweep) {
    const core::DotInstance world =
        core::make_scaled_scenario(tasks, core::RequestRate::kLow);
    // The same 1.3/N aggregate-over-provisioned envelope as
    // bench_churn --cells: equal cells small enough that placement
    // matters, big enough that the working set fits the cluster.
    const edge::EdgeResources cell_resources =
        world.resources.scaled(1.3 / static_cast<double>(cells));

    const RunResult run =
        run_churn(world, cell_resources, cells, epochs, churn, seed, types);
    std::cerr << "bench_solver_scale: T=" << tasks << " cells=" << cells
              << " fill=" << run.fill_s << " s epoch="
              << run.mean_epoch_s() * 1e3 << " ms admitted=" << run.admitted
              << "\n";

    report << (first ? "" : ",") << "{\"tasks\":" << tasks
           << ",\"admitted\":" << run.admitted << ",\"fill_s\":" << run.fill_s
           << ",\"epoch_s\":";
    write_epochs(report, run.epoch_s);
    report << "}";
    first = false;
  }
  report << "]}\n";

  std::cout << report.str();
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_solver_scale: cannot open " << out_path << "\n";
      return 1;
    }
    out << report.str();
  }
  return 0;
}
