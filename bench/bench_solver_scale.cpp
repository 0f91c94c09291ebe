// Warm-start/caching scalability bench (DESIGN.md §8): N equal cells
// behind the ClusterDispatcher's cost_probe policy serving T active tasks,
// churned by a bounded fraction per epoch. Runs the identical seeded churn
// sequence twice — cold (every cache disabled) and warm (the defaults:
// shared cross-cell plan cache + per-cell clique memos) — times each
// epoch, and byte-compares the two admission transcripts (raw IEEE-754
// bit patterns, no tolerance): the warm run must place every task exactly
// as the cold run does, or the bench fails.
//
//   $ ./bench_solver_scale [--tasks T1,T2,...] [--cells N] [--epochs E]
//                          [--churn F] [--seed S] [--types K]
//                          [--mode both|cold|warm] [--out report.json]
//
// Per-epoch work: round(F*T) departures + the same number of fresh
// arrivals, each arrival fanning one probe out per cell. Epoch wall times
// exclude the initial T-task fill (reported separately as fill_s).
//
// Workload shape: the T active tasks are drawn from a bounded pool of K
// task *types* (--types, default 8; 0 = every task unique). This is the
// metro-edge regime the caches are built for — many users run the same
// bounded set of vision configurations (detection/classification tiers at
// a handful of SLO points), differing only in task name. The canonical
// encodings are name-blind, so two users requesting the same type against
// the same cell state produce the same cache key, and the cross-cell plan
// cache amortizes one solve across all of them. --types 0 degenerates to
// the adversarial all-unique workload where plan-cache hits require exact
// state recurrence.
#include <algorithm>
#include <bit>
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
#include "core/fingerprint.h"
#include "core/plan_cache.h"
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
  std::string transcript;
  odn::core::PlanCacheStats cache;

  double mean_epoch_s() const {
    if (epoch_s.empty()) return 0.0;
    double total = 0.0;
    for (const double s : epoch_s) total += s;
    return total / static_cast<double>(epoch_s.size());
  }
};

void put_bits(std::string& out, double value) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx.",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  out += buffer;
}

// One full churn run. The transcript captures every outcome the caches
// could possibly perturb: admission verdict, chosen/preferred cell and the
// solved objective, plus the release echo.
RunResult run_churn(const odn::core::DotInstance& world,
                    const odn::edge::EdgeResources& cell_resources,
                    std::size_t cells, std::size_t epochs, double churn,
                    std::uint64_t seed, std::size_t types, bool caches_on) {
  using namespace odn;

  // The bounded task-type pool: K evenly spaced templates out of the
  // scenario's task list (0 = all of them, each its own type). Arrivals
  // clone a pool entry under a per-user name; the encodings are
  // name-blind, so same-type arrivals share cache keys.
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
  controller_options.cache.plan_cache = caches_on;
  controller_options.cache.solver_cache = caches_on;

  std::vector<cluster::CellSpec> specs;
  specs.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i)
    specs.push_back(
        cluster::CellSpec{"cell-" + std::to_string(i), cell_resources});
  // Size the shared cache to the probe working set: every (cell state,
  // type) pair currently reachable is ~cells × types entries, but cell
  // states keep a tail of recently departed-from states that re-hit when
  // releases restore them — 8× headroom keeps eviction out of the
  // steady-state path without growing past the working set's order.
  const std::size_t cache_capacity =
      std::max<std::size_t>(8192, 8 * cells * world.tasks.size());
  cluster::ClusterDispatcher dispatcher(
      std::move(specs), world.radio, controller_options,
      {.policy = cluster::PlacementPolicy::kCostProbe,
       .plan_cache = caches_on,
       .plan_cache_capacity = cache_capacity});

  RunResult result;
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xA5A5);
  std::vector<std::string> active;
  std::size_t fresh_counter = 0;

  // The catalog never changes across the run: hand every admission the
  // precomputed digest so cache keys cost O(1) in the catalog size.
  const core::Fingerprint catalog_fp = core::catalog_digest(world.catalog);

  const auto admit_one = [&](const core::DotTask& task) {
    const cluster::AdmissionOutcome outcome = dispatcher.admit(
        world.catalog, task, caches_on ? &catalog_fp : nullptr);
    result.transcript += outcome.admitted ? "A" : "R";
    result.transcript += std::to_string(outcome.cell) + ":" +
                         std::to_string(outcome.preferred_cell) + ":";
    if (outcome.admitted) {
      put_bits(result.transcript, outcome.plan.admission_ratio);
      put_bits(result.transcript, outcome.plan.expected_latency_s);
      active.push_back(task.spec.name);
    }
    result.transcript += ";";
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
      result.transcript += "D" +
                           std::to_string(dispatcher.release(active[pick])) +
                           ";";
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
  if (dispatcher.plan_cache() != nullptr)
    result.cache = dispatcher.plan_cache()->stats();
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
  std::string mode = "both";
  std::string out_path;
  util::Flags flags(argc, argv,
                    "[--tasks T1,T2,...] [--cells N] [--epochs E] [--churn F]"
                    " [--seed S] [--types K] [--mode both|cold|warm]"
                    " [--out report.json]");
  while (flags.next()) {
    if (flags.is("--tasks")) tasks_arg = flags.text();
    else if (flags.is("--cells")) cells = flags.count<std::size_t>(1);
    else if (flags.is("--epochs")) epochs = flags.count<std::size_t>();
    else if (flags.is("--churn")) churn = flags.number();
    else if (flags.is("--seed")) seed = flags.count<std::uint64_t>();
    else if (flags.is("--types")) types = flags.count<std::size_t>();
    else if (flags.is("--mode")) mode = flags.choice({"both", "cold", "warm"});
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
  bool all_equal = true;

  for (const std::size_t tasks : sweep) {
    const core::DotInstance world =
        core::make_scaled_scenario(tasks, core::RequestRate::kLow);
    // The same 1.3/N aggregate-over-provisioned envelope as
    // bench_churn --cells: equal cells small enough that placement
    // matters, big enough that the working set fits the cluster.
    const edge::EdgeResources cell_resources =
        world.resources.scaled(1.3 / static_cast<double>(cells));

    RunResult cold;
    RunResult warm;
    if (mode != "warm")
      cold = run_churn(world, cell_resources, cells, epochs, churn, seed,
                       types, /*caches_on=*/false);
    if (mode != "cold")
      warm = run_churn(world, cell_resources, cells, epochs, churn, seed,
                       types, /*caches_on=*/true);

    bool equal = true;
    double speedup = 0.0;
    if (mode == "both") {
      equal = cold.transcript == warm.transcript;
      all_equal = all_equal && equal;
      if (warm.mean_epoch_s() > 0.0)
        speedup = cold.mean_epoch_s() / warm.mean_epoch_s();
      std::cerr << "bench_solver_scale: T=" << tasks << " cells=" << cells
                << " cold=" << cold.mean_epoch_s() * 1e3
                << " ms/epoch warm=" << warm.mean_epoch_s() * 1e3
                << " ms/epoch speedup=" << speedup
                << (equal ? " (transcripts identical)"
                          : " TRANSCRIPT MISMATCH")
                << "\n";
    }

    report << (first ? "" : ",") << "{\"tasks\":" << tasks;
    if (mode != "warm") {
      report << ",\"cold_fill_s\":" << cold.fill_s << ",\"cold_epoch_s\":";
      write_epochs(report, cold.epoch_s);
    }
    if (mode != "cold") {
      report << ",\"warm_fill_s\":" << warm.fill_s << ",\"warm_epoch_s\":";
      write_epochs(report, warm.epoch_s);
      report << ",\"plan_cache\":{\"hits\":" << warm.cache.hits
             << ",\"misses\":" << warm.cache.misses
             << ",\"insertions\":" << warm.cache.insertions
             << ",\"evictions\":" << warm.cache.evictions << "}";
    }
    if (mode == "both") {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.3f", speedup);
      report << ",\"speedup\":" << buffer
             << ",\"transcripts_equal\":" << (equal ? "true" : "false");
    }
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
  if (!all_equal) {
    std::cerr << "bench_solver_scale: FAIL — warm transcript diverged from "
                 "cold (the §8 bit-identity contract is broken)\n";
    return 1;
  }
  return 0;
}
