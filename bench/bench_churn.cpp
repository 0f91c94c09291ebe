// Churn bench: the serving engine under sustained Poisson arrivals with
// flash-crowd bursts, faster than the edge can hold them, so every run
// exercises incremental admits, bounded retries with backoff,
// accuracy-downgraded final attempts, departures and epoch-boundary
// emulated measurement.
//
// Without --cells one server holds the whole envelope of the large-scale
// scenario (Table IV) and the ServingRuntime report goes out.
// --tightness/--mix sweep the preemption ladder (src/sched/) over
// deadline tightness x priority mix and emit an odn-preempt-sweep/1
// document; --hetcat serves the mixed ResNet/transformer catalog instead,
// optionally batched; --perf-out writes the odn-bench-perf/1 wall-clock
// summary that tools/check_bench_baseline.py reads.
//
// With --cells N, N heterogeneous cells, each a seeded 1.3/N slice of that
// envelope, serve behind the ClusterDispatcher and the cluster report goes
// out. --faults loads an ODN-FAULTS schedule, --fault-seed generates one.
//
// The sched, hetcat, perf and multi-cell flags exclude each other. The
// document goes to stdout (and --out), progress to stderr. Equal flags
// give byte-identical output for any ODN_THREADS and either --probe, with
// or without ODN_TRACE, ODN_METRICS and ODN_FLIGHT (obs/session.h).
#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "fault/fault_plan.h"
#include "obs/flight.h"
#include "obs/session.h"
#include "obs/timeline.h"
#include "runtime/serving_runtime.h"
#include "runtime/stats.h"
#include "runtime/workload.h"
#include "util/flags.h"
#include "util/fmt.h"
#include "util/logging.h"
#include "util/mathx.h"
#include "util/thread_pool.h"

namespace {

using namespace odn;

constexpr const char* kUsage =
    "[--seed N] [--horizon S] [--out report.json]\n"
    "    [ --perf-out perf.json\n"
    "    | [--tightness T]... [--mix balanced|high|low]... [--max-victims K]\n"
    "      [--no-downgrade] [--no-preempt] [--alerts] [--flight-out f.json]\n"
    "      [--timeline-out t.json] [--alerts-out a.json]\n"
    "    | --hetcat [--tasks T] [--batching] [--max-batch K]\n"
    "      [--marginal-fraction F]\n"
    "    | --cells N [--policy first_fit|least_loaded|cost_probe]\n"
    "      [--probe serial|parallel] [--no-migration] [--faults plan.txt]\n"
    "      [--fault-seed S] ]";

// Every cell holds a controller and a copy of its slice, so a typo in
// --cells must not size a fleet that exhausts memory.
constexpr std::size_t kMaxCells = 4096;

struct Config {
  std::uint64_t seed = 7;
  double horizon_s = 90.0;
  std::string out_path;
  std::string perf_out;
  // Preemption sweep; no tightness and no mix is one run with sched off.
  std::vector<double> tightness;
  std::vector<std::string> mixes;
  std::size_t max_victims = 2;
  bool allow_downgrade = true;
  bool allow_preempt = true;
  bool alerts = false;
  std::string flight_out, timeline_out, alerts_out;
  // Heterogeneous catalog.
  bool hetcat = false;
  std::size_t tasks = 18;
  bool batching = false;
  std::size_t max_batch = 8;
  double marginal_fraction = 0.45;
  // Multi-cell fleet; 0 cells is the single server.
  std::size_t cells = 0;
  std::string policy = "least_loaded";
  bool parallel_probe = true;
  bool migration = true;
  std::string fault_path;
  std::optional<std::uint64_t> fault_seed;

  bool sweep() const { return !tightness.empty() || !mixes.empty(); }
  std::size_t run_count() const {
    return sweep() ? std::max<std::size_t>(tightness.size(), 1) *
                         std::max<std::size_t>(mixes.size(), 1)
                   : 1;
  }
};

// The mode-specific flag families; at most one may appear in a run.
enum Family { kPerf, kSched, kHetcat, kCells, kFamilies };

const std::map<std::string_view, Family> kFamilyOf = {
    {"--perf-out", kPerf},          {"--tightness", kSched},
    {"--mix", kSched},              {"--max-victims", kSched},
    {"--no-downgrade", kSched},     {"--no-preempt", kSched},
    {"--alerts", kSched},           {"--flight-out", kSched},
    {"--timeline-out", kSched},     {"--alerts-out", kSched},
    {"--hetcat", kHetcat},          {"--tasks", kHetcat},
    {"--batching", kHetcat},        {"--max-batch", kHetcat},
    {"--marginal-fraction", kHetcat},
    {"--cells", kCells},            {"--policy", kCells},
    {"--probe", kCells},            {"--no-migration", kCells},
    {"--faults", kCells},           {"--fault-seed", kCells},
};

// Priority-mix presets: band weights for WorkloadQosOptions::priority_mix
// (low / medium / high priority thirds of [0, 1)).
std::vector<double> mix_weights(const std::string& name) {
  if (name == "high") return {1.0, 1.0, 3.0};
  if (name == "low") return {3.0, 1.0, 1.0};
  return {1.0, 1.0, 1.0};  // balanced
}

Config parse(util::Flags& flags) {
  Config c;
  std::array<std::string, kFamilies> first;  // first flag of each family
  while (flags.next()) {
    if (const auto it = kFamilyOf.find(flags.arg());
        it != kFamilyOf.end() && first[it->second].empty())
      first[it->second] = flags.arg();
    if (flags.is("--seed")) c.seed = flags.count<std::uint64_t>();
    else if (flags.is("--horizon")) c.horizon_s = flags.positive();
    else if (flags.is("--out")) c.out_path = flags.text();
    else if (flags.is("--perf-out")) c.perf_out = flags.text();
    else if (flags.is("--tightness")) c.tightness.push_back(flags.positive());
    else if (flags.is("--mix"))
      c.mixes.push_back(flags.choice({"balanced", "high", "low"}));
    else if (flags.is("--max-victims"))
      c.max_victims = flags.count<std::size_t>();
    else if (flags.is("--no-downgrade")) c.allow_downgrade = false;
    else if (flags.is("--no-preempt")) c.allow_preempt = false;
    else if (flags.is("--alerts")) c.alerts = true;
    else if (flags.is("--flight-out")) c.flight_out = flags.text();
    else if (flags.is("--timeline-out")) c.timeline_out = flags.text();
    else if (flags.is("--alerts-out")) c.alerts_out = flags.text();
    else if (flags.is("--hetcat")) c.hetcat = true;
    else if (flags.is("--tasks")) c.tasks = flags.count<std::size_t>(1);
    else if (flags.is("--batching")) c.batching = true;
    else if (flags.is("--max-batch"))
      c.max_batch = flags.count<std::size_t>(1);
    else if (flags.is("--marginal-fraction"))
      c.marginal_fraction = flags.number();
    else if (flags.is("--cells"))
      c.cells = flags.count<std::size_t>(1, kMaxCells);
    else if (flags.is("--policy"))
      c.policy = flags.choice({"first_fit", "least_loaded", "cost_probe"});
    else if (flags.is("--probe"))
      c.parallel_probe = flags.choice({"serial", "parallel"}) == "parallel";
    else if (flags.is("--no-migration")) c.migration = false;
    else if (flags.is("--faults")) c.fault_path = flags.text();
    else if (flags.is("--fault-seed"))
      c.fault_seed = flags.count<std::uint64_t>();
    else flags.unknown();
  }
  if (c.cells == 0 && !first[kCells].empty())
    flags.fail(first[kCells] + " requires --cells");
  if (!c.hetcat && !first[kHetcat].empty())
    flags.fail(first[kHetcat] + " requires --hetcat");
  for (std::size_t a = 0; a < kFamilies; ++a)
    for (std::size_t b = a + 1; b < kFamilies; ++b)
      if (!first[a].empty() && !first[b].empty())
        flags.fail(first[b] + " cannot be combined with " + first[a]);
  if (!c.fault_path.empty() && c.fault_seed)
    flags.fail("--fault-seed cannot be combined with --faults");
  if (!c.alerts_out.empty() && !c.alerts)
    flags.fail("--alerts-out requires --alerts");
  if ((!c.flight_out.empty() || !c.timeline_out.empty() ||
       !c.alerts_out.empty()) &&
      c.run_count() > 1)
    flags.fail(util::fmt(
        "--flight-out/--timeline-out/--alerts-out need a single run, the "
        "sweep has {}",
        c.run_count()));
  return c;
}

// Writes a document to stdout and, with --out, to that file.
template <typename Emit>
void publish(const std::string& out_path, Emit&& emit) {
  emit(std::cout);
  if (out_path.empty()) return;
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot open " + out_path);
  emit(out);
}

runtime::WorkloadTrace churn_trace(std::size_t templates, const Config& c,
                                   const runtime::WorkloadQosOptions& qos) {
  runtime::WorkloadOptions workload;
  workload.horizon_s = c.horizon_s;
  workload.seed = c.seed;
  workload.arrival_rate_per_s = 1.2;  // ~30 concurrent at steady state:
  workload.mean_holding_s = 25.0;     // sustained overload vs. 20-task sizing
  workload.burst_count = 2;
  workload.burst_arrivals_mean = 8.0;
  workload.burst_span_s = 3.0;
  workload.qos = qos;
  runtime::WorkloadTrace trace =
      runtime::generate_workload(templates, workload);
  std::cerr << "bench_churn: trace '" << trace.name << "', "
            << trace.events.size() << " events (" << trace.arrival_count()
            << " arrivals) over " << trace.horizon_s << " s\n";
  return trace;
}

// The engine options every mode shares. The sched knobs are always set
// and only a sweep run enables the ladder, so knobs without a sweep give
// the plain churn run.
runtime::RuntimeOptions runtime_options(const Config& c) {
  runtime::RuntimeOptions options;
  options.seed = c.seed;
  options.epoch_s = 10.0;
  options.emulation_window_s = 5.0;
  options.retry.max_attempts = 3;
  options.retry.backoff_s = 2.0;
  options.retry.downgrade_final_attempt = true;
  options.sched.max_victims = c.max_victims;
  options.sched.allow_downgrade = c.allow_downgrade;
  options.sched.allow_preempt = c.allow_preempt;
  options.alerts.enabled = c.alerts;
  options.batching.enabled = c.batching;
  options.batching.max_batch = c.max_batch;
  options.batching.cost.marginal_fraction = c.marginal_fraction;
  return options;
}

// One single-server run; a positive tightness turns on QoS annotation and
// the preemption ladder.
runtime::RuntimeReport serve(const core::DotInstance& scenario,
                             const Config& c, double tightness,
                             const std::string& mix) {
  runtime::WorkloadQosOptions qos;
  runtime::RuntimeOptions options = runtime_options(c);
  if (tightness > 0.0) {
    qos.enabled = true;
    qos.deadline_tightness = tightness;
    qos.priority_mix = mix_weights(mix);
    options.sched.enabled = true;
    std::cerr << "bench_churn: tightness " << runtime::json_double(tightness)
              << ", mix " << mix << "\n";
  }
  const runtime::WorkloadTrace trace =
      churn_trace(scenario.tasks.size(), c, qos);
  runtime::ServingRuntime serving(scenario.catalog, scenario.resources,
                                  scenario.radio, scenario.tasks, options);
  return serving.run(trace);
}

void write_sweep_json(std::ostream& out, const Config& c,
                      const std::vector<runtime::RuntimeReport>& reports) {
  using runtime::json_double;
  out << "{\n";
  out << "  \"schema\": \"odn-preempt-sweep/1\",\n";
  out << "  \"seed\": " << c.seed << ",\n";
  out << "  \"horizon_s\": " << json_double(c.horizon_s) << ",\n";
  out << "  \"runs\": [\n";
  std::size_t index = 0;
  for (const double tightness : c.tightness) {
    for (const std::string& mix : c.mixes) {
      out << "    {\n";
      out << "      \"tightness\": " << json_double(tightness) << ",\n";
      out << "      \"mix\": \"" << mix << "\",\n";
      out << "      \"report\": ";
      reports[index++].write_json(out);  // ends with "}\n"
      out << "    }" << (index < reports.size() ? "," : "") << "\n";
    }
  }
  out << "  ]\n";
  out << "}\n";
}

// Epoch-measurement mean / p99 and total run wall time.
void write_perf_json(const std::string& path, const Config& c,
                     const runtime::RuntimeReport& report) {
  std::vector<double> measure_s;
  for (const cluster::ClusterEpochSnapshot& e : report.timeline)
    measure_s.push_back(e.measure_wall_s);
  const double mean_s = util::mean(measure_s);
  const double p99_s =
      measure_s.empty() ? 0.0 : util::percentile(measure_s, 99.0);
  std::ofstream perf(path);
  if (!perf) throw std::runtime_error("cannot open " + path);
  perf << "{\n";
  perf << "  \"schema\": \"odn-bench-perf/1\",\n";
  perf << "  \"bench\": \"runtime_churn\",\n";
  perf << "  \"seed\": " << c.seed << ",\n";
  perf << "  \"epochs\": " << report.epochs << ",\n";
  perf << "  \"metrics\": {\n";
  perf << "    \"epoch_measure_mean_s\": " << runtime::json_double(mean_s)
       << ",\n";
  perf << "    \"epoch_measure_p99_s\": " << runtime::json_double(p99_s)
       << ",\n";
  perf << "    \"run_wall_s\": " << runtime::json_double(report.run_wall_s)
       << "\n";
  perf << "  }\n";
  perf << "}\n";
}

// The single-run diagnosis artifacts: flight record, task timelines and
// the standalone alert log.
void write_artifacts(const Config& c, const runtime::RuntimeReport& report) {
  if (!c.flight_out.empty() && !obs::dump_flight_record(c.flight_out))
    throw std::runtime_error("cannot open " + c.flight_out);
  if (!c.timeline_out.empty() &&
      !obs::write_timelines_json(
          c.timeline_out, obs::build_task_timelines(
                              obs::FlightRecorder::global().snapshot())))
    throw std::runtime_error("cannot open " + c.timeline_out);
  if (!c.alerts_out.empty()) {
    std::ofstream out(c.alerts_out);
    if (!out) throw std::runtime_error("cannot open " + c.alerts_out);
    out << "{\n  \"schema\": \"odn-alert-log/1\",\n  \"alerts\": ";
    runtime::write_alert_log_json(out, report.alerts, "  ");
    out << "\n}\n";
  }
}

void run_single_server(const Config& c) {
  const core::DotInstance scenario =
      c.hetcat ? core::make_mixed_scenario(c.tasks, core::RequestRate::kMedium)
               : core::make_large_scenario(core::RequestRate::kLow);
  if (!c.flight_out.empty() || !c.timeline_out.empty()) {
    // Big enough that no sweep horizon evicts (the dump's "dropped" field
    // stays 0, so timelines are complete).
    obs::FlightRecorder::global().set_capacity(65536);
    obs::FlightRecorder::global().set_enabled(true);
  }

  if (!c.sweep()) {
    const runtime::RuntimeReport report = serve(scenario, c, 0.0, "");
    publish(c.out_path, [&](std::ostream& out) { report.write_json(out); });
    write_artifacts(c, report);
    if (!c.perf_out.empty()) write_perf_json(c.perf_out, c, report);
    std::cerr << "bench_churn: " << report.total_admitted() << "/"
              << report.total_arrivals() << " jobs admitted, "
              << report.total_slo_violations() << " SLO violations across "
              << report.epochs << " epochs\n";
    return;
  }

  Config sweep = c;
  if (sweep.tightness.empty()) sweep.tightness.push_back(1.0);
  if (sweep.mixes.empty()) sweep.mixes.emplace_back("balanced");
  std::vector<runtime::RuntimeReport> reports;
  for (const double tightness : sweep.tightness)
    for (const std::string& mix : sweep.mixes)
      reports.push_back(serve(scenario, sweep, tightness, mix));
  publish(c.out_path,
          [&](std::ostream& out) { write_sweep_json(out, sweep, reports); });
  write_artifacts(c, reports.back());
  std::size_t preemptions = 0, downgrades = 0;
  for (const runtime::RuntimeReport& report : reports) {
    preemptions += report.sched.preemptions;
    downgrades += report.sched.downgrades;
  }
  std::cerr << "bench_churn: " << reports.size() << " runs, " << preemptions
            << " preemptions, " << downgrades << " downgrades\n";
}

void run_cells(const Config& c, util::Flags& flags) {
  fault::FaultPlan plan;
  if (!c.fault_path.empty()) {
    try {
      plan = fault::read_fault_plan_file(c.fault_path);
    } catch (const std::exception& error) {
      flags.fail(util::fmt("--faults: {}", error.what()));
    }
    if (plan.cell_count != c.cells)
      flags.fail(util::fmt("--faults: plan is for {} cells, the run has {}",
                           plan.cell_count, c.cells));
  } else if (c.fault_seed) {
    fault::FaultPlanOptions fault_options;
    fault_options.seed = *c.fault_seed;
    fault_options.horizon_s = c.horizon_s;
    plan = fault::generate_fault_plan(c.cells, fault_options);
  }

  const core::DotInstance scenario =
      core::make_large_scenario(core::RequestRate::kLow);
  const runtime::WorkloadTrace trace =
      churn_trace(scenario.tasks.size(), c, {});
  std::cerr << "bench_churn: " << c.cells << " cells, policy " << c.policy
            << ", fault plan '" << plan.name << "' (" << plan.events.size()
            << " events)\n";

  cluster::ClusterOptions options;
  static_cast<runtime::RuntimeOptions&>(options) = runtime_options(c);
  options.dispatch.policy = cluster::parse_placement_policy(c.policy);
  options.dispatch.parallel_probe = c.parallel_probe;
  options.migrate_on_slo = c.migration;
  options.faults = plan;
  // Per cell 1.3/N of the single-server envelope: ~30 % over-provisioned
  // in aggregate, yet every cell is small enough to overload under bursts.
  const edge::EdgeResources slice =
      scenario.resources.scaled(1.3 / static_cast<double>(c.cells));
  cluster::ClusterRuntime runtime(
      scenario.catalog,
      cluster::make_cells(c.cells, slice, c.seed, /*spread=*/0.35),
      scenario.radio, scenario.tasks, options);
  const cluster::ClusterReport report = runtime.run(trace);

  publish(c.out_path, [&](std::ostream& out) { report.write_json(out); });
  std::cerr << "bench_churn: " << report.total_admitted() << "/"
            << report.total_arrivals() << " jobs admitted, "
            << report.migration.migrated << "/" << report.migration.attempted
            << " migrations, " << report.faults.displaced
            << " displaced by faults, " << report.total_slo_violations()
            << " SLO violations across " << report.epochs << " epochs\n";
}

}  // namespace

int main(int argc, char** argv) try {
  // ODN_TRACE / ODN_METRICS / ODN_FLIGHT dump their artifacts at exit;
  // stdout stays the pure report document.
  obs::EnvSession obs_session;
  util::Flags flags(argc, argv, kUsage);
  const Config config = parse(flags);
  // Resolve ODN_THREADS before any work, so a malformed value fails here.
  util::global_thread_count();
  // The churn loop would log hundreds of progress lines.
  util::set_log_level(util::LogLevel::kWarn);
  if (config.cells > 0)
    run_cells(config, flags);
  else
    run_single_server(config);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "bench_churn: " << error.what() << "\n";
  return 1;
}
