// perfbench — the repository benchmark driver.
//
// One process runs one workload as a closed loop with a single client: the
// next op starts when the previous one returns. Every run replays a fixed
// set of episodes derived from --seed, so every run of one seed does
// identical work and only the host varies. The thread pool is pinned to
// one thread (serial), so neither ODN_THREADS nor the core count changes
// the load. On a shared VM a parallel op waits for every vCPU it wakes, and
// under host contention those waits, not the program, set its time.
//
//   perfbench --workload cell_deadline|fleet_probe|substrate_profile
//             --seed N --seconds S --trace 0|1
//             [--pool N] [--corrupt] [--span-out PATH]
//
// --trace 0 measures the end-to-end metrics. --trace 1 interleaves the
// same untraced ops with a traced replay of each episode: the replay calls
// each layer's public functions from here, wraps every call in a span kept
// in memory, and derives the per-layer metrics from those spans (written to
// --span-out at exit). Nothing inside the library is instrumented.
//
// The last stdout line is the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The line before it carries informational fields (report digest, sample
// counts, the host-noise probe) that are not metrics.
//
// --pool and --corrupt exist for the benchmark's own tests: the report
// digest must not depend on the pool size, and a corrupted report must be
// counted as a failed op.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cell.h"
#include "cluster/cluster_runtime.h"
#include "cluster/dispatcher.h"
#include "core/block_profiles.h"
#include "core/fingerprint.h"
#include "core/offloadnn_solver.h"
#include "core/plan_cache.h"
#include "core/scenarios.h"
#include "core/solver_cache.h"
#include "core/tree.h"
#include "fault/fault_plan.h"
#include "model/vision_transformer.h"
#include "model/zoo.h"
#include "nn/gemm.h"
#include "nn/gemm_kernel.h"
#include "nn/profiler.h"
#include "nn/resnet.h"
#include "nn/tensor.h"
#include "runtime/serving_runtime.h"
#include "runtime/stats.h"
#include "runtime/workload.h"
#include "sched/conservation.h"
#include "sched/policy.h"
#include "sim/emulator.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace odn;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile: the smallest sample with at least pct% of the
// samples at or below it. With n samples, n - ceil(pct/100 · n) lie beyond.
double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Episode seeds are kept below 2^31 so every consumer's seed type holds
// them unchanged.
std::uint64_t episode_seed(std::uint64_t run_seed, std::size_t episode) {
  return splitmix64(run_seed * 1000003ULL + episode) & 0x7FFFFFFFULL;
}

// FNV-1a, 64 bit.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t hash = 0xCBF29CE484222325ULL) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Host-noise probe: a dependent pointer chase over a 16 MiB single-cycle
// permutation, larger than L2, so each step is a cache miss whose cost
// tracks the memory system rather than the core clock. Informational only.
double pointer_chase_ns_per_step() {
  constexpr std::size_t kSlots = std::size_t{1} << 22;  // 4 Mi x 4 bytes
  constexpr std::size_t kSteps = std::size_t{1} << 21;
  std::vector<std::uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0u);
  std::mt19937_64 rng(12345);
  for (std::size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    std::uniform_int_distribution<std::size_t> pick(0, i - 1);
    std::swap(next[i], next[pick(rng)]);
  }
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < kSteps / 8; ++i) at = next[at];  // warm TLB
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kSteps; ++i) at = next[at];
  const double elapsed = seconds_since(start);
  volatile std::uint32_t sink = at;
  (void)sink;
  return elapsed * 1e9 / static_cast<double>(kSteps);
}

// Runs the chase in a child process so its working set never counts
// toward this process's peak RSS. Called before any thread starts.
// Returns 0 when the child could not report.
double host_probe_ns_per_step() {
  int fds[2];
  if (pipe(fds) != 0) return 0.0;
  const pid_t child = fork();
  if (child < 0) {
    close(fds[0]);
    close(fds[1]);
    return 0.0;
  }
  if (child == 0) {
    close(fds[0]);
    const double ns = pointer_chase_ns_per_step();
    const ssize_t written = write(fds[1], &ns, sizeof ns);
    _exit(written == static_cast<ssize_t>(sizeof ns) ? 0 : 1);
  }
  close(fds[1]);
  double ns = 0.0;
  if (read(fds[0], &ns, sizeof ns) != static_cast<ssize_t>(sizeof ns))
    ns = 0.0;
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  return ns;
}

// ---------------------------------------------------------------------------
// Spans, kept in memory for the whole traced run and written out at exit.

class Tracer {
 public:
  static constexpr std::uint64_t kNoJob = ~std::uint64_t{0};

  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t episode = 0;
    std::uint64_t job = kNoJob;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { tracer_.close(index_); }

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  Scope open(const char* name, std::uint64_t job = kNoJob) {
    Span span;
    span.name = name;
    span.parent = current_;
    span.episode = episode_;
    span.job = job;
    span.start_ns = now_ns();
    spans_.push_back(span);
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return Scope(*this, current_);
  }

  void set_episode(std::size_t episode) {
    episode_ = static_cast<std::uint32_t>(episode);
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  bool write(const std::string& path, std::size_t limit) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    const std::size_t count = std::min(limit, spans_.size());
    for (std::size_t i = 0; i < count; ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"episode\": " << s.episode
          << ", \"job\": "
          << (s.job == kNoJob ? std::string("null") : std::to_string(s.job))
          << ", \"start_us\": "
          << runtime::json_double(static_cast<double>(s.start_ns - origin) /
                                  1e3)
          << ", \"dur_us\": "
          << runtime::json_double(static_cast<double>(s.end_ns - s.start_ns) /
                                  1e3)
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint32_t episode_ = 0;
};

// Per span name: every duration, and the self time (duration minus the
// part its child spans cover).
struct SpanStats {
  std::vector<double> dur_us;
  double total_us = 0.0;
  double self_us = 0.0;

  double p50() const { return percentile(dur_us, 50.0); }
  double p90() const { return percentile(dur_us, 90.0); }
  double count() const { return static_cast<double>(dur_us.size()); }
};

std::map<std::string, SpanStats> aggregate(const std::vector<Tracer::Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  auto dur = [&](std::size_t i) {
    return static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
  };
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      child_us[static_cast<std::size_t>(spans[i].parent)] += dur(i);
  std::map<std::string, SpanStats> stats;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanStats& s = stats[spans[i].name];
    s.dur_us.push_back(dur(i));
    s.total_us += dur(i);
    s.self_us += dur(i) - child_us[i];
  }
  return stats;
}

// SchedHost decorator: times every probe, commit and release the ladder
// (and the replay's departures) issue against the wrapped host.
class TimingSchedHost : public sched::SchedHost {
 public:
  TimingSchedHost(sched::SchedHost& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  core::DeploymentPlan probe(
      std::vector<core::DotTask> requests) const override {
    const Tracer::Scope span = tracer_.open("core.probe");
    return inner_.probe(std::move(requests));
  }
  core::DeploymentPlan commit(std::vector<core::DotTask> requests) override {
    const Tracer::Scope span = tracer_.open("core.commit");
    return inner_.commit(std::move(requests));
  }
  bool release(const std::string& name) override {
    const Tracer::Scope span = tracer_.open("core.release");
    return inner_.release(name);
  }

 private:
  sched::SchedHost& inner_;
  Tracer& tracer_;
};

// ---------------------------------------------------------------------------
// Workloads.

// What one untraced op produced. `error` is empty when every check passed.
struct Outcome {
  std::string error;
  std::uint64_t digest = 0;  // FNV-1a of the report bytes
  double run_wall_s = 0.0;   // run() alone (churn workloads)
  double report_s = 0.0;     // write_json alone (churn workloads)
  // Churn accounting: job arrivals and admissions; emulated requests and
  // those beyond their latency bound. For substrate_profile, the stage
  // costs checked and those that passed.
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t requests = 0;
  std::size_t violations = 0;
  // Cache and recovery counters read after the op.
  double plan_hits = 0, plan_lookups = 0;
  double clique_hits = 0, clique_lookups = 0;
  double displaced = 0, readmitted = 0;
  double spilled = 0, placed = 0;
};

using Layers = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t episode_count() const = 0;
  // The op the end-to-end metrics time. `corrupt` damages the output
  // before the checks run (the benchmark's own tests use it).
  virtual Outcome op(std::size_t episode, bool corrupt) = 0;
  // The traced replay of one episode.
  virtual void traced_op(std::size_t episode, Tracer& tracer) = 0;
  // Per-layer metrics from the recorded spans plus the untraced outcomes
  // gathered in the same run.
  virtual void layer_metrics(const std::map<std::string, SpanStats>& spans,
                             const std::vector<Outcome>& outcomes,
                             Layers& layers) = 0;
};

std::string check_classes(const std::vector<runtime::ClassStats>& classes) {
  for (const runtime::ClassStats& c : classes) {
    const std::size_t settled = c.admitted + c.rejected_final +
                                c.departed_before_admission + c.pending_at_end;
    if (settled != c.arrivals)
      return "job partition of class " + c.name + " sums to " +
             std::to_string(settled) + ", arrivals " +
             std::to_string(c.arrivals);
  }
  return "";
}

std::string check_sched(const sched::SchedStats& s, std::size_t arrivals) {
  if (!s.enabled) return "";
  if (s.met + s.missed + s.preempted + s.downgraded + s.rejected != arrivals)
    return "sched buckets do not sum to arrivals";
  if (s.preemptions != s.preempted_readmitted + s.preempted_rejected +
                           s.preempted_departed + s.preempted_pending_at_end)
    return "sched preemption ledger does not balance";
  return "";
}

std::string check_faults(const fault::FaultStats& f) {
  if (!f.enabled) return "";
  if (f.displaced != f.displaced_replaced + f.displaced_readmitted +
                         f.displaced_rejected + f.displaced_departed +
                         f.displaced_pending_at_end)
    return "fault ledger does not balance";
  return "";
}

std::string job_name(std::uint64_t id, const core::DotTask& tmpl) {
  return "job-" + std::to_string(id) + "/" + tmpl.spec.name;
}

const SpanStats& span_stats(const std::map<std::string, SpanStats>& spans,
                            const char* name) {
  static const SpanStats empty;
  const auto it = spans.find(name);
  return it == spans.end() ? empty : it->second;
}

// The parts of a churn traced op outside the replay: regenerating the
// episode's inputs, and one cold tree build and one cold solve of the
// 20-template instance.
void trace_inputs_and_solver(const core::DotInstance& scenario, Tracer& tracer,
                             const std::function<void()>& regenerate) {
  {
    const Tracer::Scope span = tracer.open("runtime.gen");
    regenerate();
  }
  {
    const Tracer::Scope span = tracer.open("core.tree");
    const core::SolutionTree tree(scenario);
    (void)tree.num_layers();
  }
  {
    const Tracer::Scope span = tracer.open("core.solve");
    const core::DotSolution solution = core::OffloadnnSolver().solve(scenario);
    (void)solution;
  }
}

// Time-orders the replay's epoch boundaries after the trace events of the
// same instant, as both runtimes do.
template <typename OnEvent, typename OnEpoch>
void replay_events(const runtime::WorkloadTrace& trace, double epoch_s,
                   OnEvent&& on_event, OnEpoch&& on_epoch) {
  std::size_t epoch = 0;
  auto boundary = [&](std::size_t e) {
    return std::min(static_cast<double>(e + 1) * epoch_s, trace.horizon_s);
  };
  const std::size_t epochs = static_cast<std::size_t>(
      std::floor((trace.horizon_s + 1e-9) / epoch_s));
  for (const runtime::WorkloadEvent& event : trace.events) {
    while (epoch < epochs && boundary(epoch) < event.time_s) on_epoch(epoch++);
    on_event(event);
  }
  while (epoch < epochs) on_epoch(epoch++);
}

// --- cell_deadline ---------------------------------------------------------

class CellDeadline : public Workload {
 public:
  static constexpr std::size_t kEpisodes = 100;

  explicit CellDeadline(std::uint64_t seed) {
    for (std::size_t e = 0; e < kEpisodes; ++e) {
      Episode episode;
      episode.seed = episode_seed(seed, e);
      generate(episode);
      episodes_.push_back(std::move(episode));
    }
  }

  std::size_t episode_count() const override { return episodes_.size(); }

  Outcome op(std::size_t index, bool corrupt) override {
    const core::DotInstance& scenario = scenario_;
    const Episode& episode = episodes_[index];
    Outcome out;
    runtime::ServingRuntime serving(scenario.catalog, scenario.resources,
                                    scenario.radio, scenario.tasks,
                                    options(episode));
    const Clock::time_point run_start = Clock::now();
    runtime::RuntimeReport report = serving.run(episode.trace);
    out.run_wall_s = seconds_since(run_start);
    if (corrupt) ++report.classes.front().admitted;
    const Clock::time_point report_start = Clock::now();
    std::ostringstream json;
    report.write_json(json);
    out.report_s = seconds_since(report_start);
    out.digest = fnv1a(json.str());

    out.arrivals = report.total_arrivals();
    out.admitted = report.total_admitted();
    for (const runtime::EpochSnapshot& s : report.timeline) {
      out.requests += s.samples;
      out.violations += s.slo_violations;
    }
    out.error = check_classes(report.classes);
    if (out.error.empty()) out.error = check_sched(report.sched, out.arrivals);
    if (out.error.empty()) out.error = check_faults(report.faults);

    if (const auto& plans = serving.controller().plan_cache()) {
      const core::PlanCacheStats s = plans->stats();
      out.plan_hits = static_cast<double>(s.hits);
      out.plan_lookups = static_cast<double>(s.hits + s.misses);
    }
    if (const core::SolverCache* memo = serving.controller().solver_cache()) {
      const core::SolverCacheStats s = memo->stats();
      out.clique_hits = static_cast<double>(s.clique_hits);
      out.clique_lookups = static_cast<double>(s.clique_hits + s.clique_misses);
    }
    out.displaced = static_cast<double>(report.faults.displaced);
    out.readmitted = static_cast<double>(report.faults.displaced_replaced +
                                         report.faults.displaced_readmitted);
    return out;
  }

  void traced_op(std::size_t index, Tracer& tracer) override {
    tracer.set_episode(index);
    trace_inputs_and_solver(scenario_, tracer, [&] {
      Episode regenerated;
      regenerated.seed = episodes_[index].seed;
      generate(regenerated);
    });
    replay(episodes_[index], tracer);
  }

  void layer_metrics(const std::map<std::string, SpanStats>& spans,
                     const std::vector<Outcome>& outcomes,
                     Layers& layers) override {
    auto get = [&](const char* name) -> const SpanStats& {
      return span_stats(spans, name);
    };
    layers["core.probe_p50_us"] = get("core.probe").p50();
    layers["core.probe_p90_us"] = get("core.probe").p90();
    layers["core.probe_calls"] = get("core.probe").count();
    layers["core.commit_p50_us"] = get("core.commit").p50();
    layers["core.commit_calls"] = get("core.commit").count();
    layers["core.release_p50_us"] = get("core.release").p50();
    layers["core.release_calls"] = get("core.release").count();
    const SpanStats& ladder = get("sched.ladder");
    layers["sched.ladder_p50_us"] = ladder.p50();
    layers["sched.ladder_p90_us"] = ladder.p90();
    layers["sched.ladder_calls"] = ladder.count();
    layers["sched.ladder_self_frac"] = ratio(ladder.self_us, ladder.total_us);
    layers["sched.probes_per_ladder"] =
        ratio(static_cast<double>(ladder_probes_), ladder.count());
    layers["sched.ladder_admit_frac"] =
        ratio(static_cast<double>(ladder_admits_), ladder.count());
    layers["sched.conservation_p50_us"] = get("sched.conservation").p50();

    double fault_displaced = 0, fault_readmitted = 0;
    for (const Outcome& o : outcomes) {
      fault_displaced += o.displaced;
      fault_readmitted += o.readmitted;
    }
    layers["fault.displaced_per_op"] =
        ratio(fault_displaced, static_cast<double>(outcomes.size()));
    layers["fault.readmitted_frac"] = ratio(fault_readmitted, fault_displaced);
    layers["sim.emulate_p50_ms"] = get("sim.emulate").p50() / 1e3;
    layers["sim.requests_per_s"] =
        ratio(static_cast<double>(emulated_requests_),
              get("sim.emulate").total_us / 1e6);
  }

 private:
  struct Episode {
    std::uint64_t seed = 0;
    runtime::WorkloadTrace trace;
    fault::FaultPlan faults;
  };

  void generate(Episode& episode) const {
    runtime::WorkloadOptions workload;
    workload.horizon_s = 300.0;
    workload.seed = episode.seed;
    workload.arrival_rate_per_s = 1.2;
    workload.mean_holding_s = 25.0;
    workload.burst_count = 2;
    workload.burst_arrivals_mean = 8.0;
    workload.burst_span_s = 3.0;
    episode.trace = runtime::generate_workload(scenario_.tasks.size(), workload);
    runtime::WorkloadQosOptions qos;
    qos.enabled = true;
    qos.deadline_tightness = 0.5;
    runtime::annotate_qos(episode.trace, qos, episode.seed);
    fault::FaultPlanOptions fault_options;
    fault_options.horizon_s = workload.horizon_s;
    fault_options.seed = episode.seed;
    episode.faults = fault::generate_fault_plan(1, fault_options);
  }

  static runtime::RuntimeOptions options(const Episode& episode) {
    runtime::RuntimeOptions options;
    options.seed = episode.seed;
    options.epoch_s = 10.0;
    options.emulation_window_s = 5.0;
    options.poisson_emulation = true;
    options.retry.max_attempts = 3;
    options.retry.backoff_s = 2.0;
    options.retry.downgrade_final_attempt = true;
    options.sched.enabled = true;
    options.faults = episode.faults;
    return options;
  }

  // The replay walks the episode's trace in order through the public
  // calls ServingRuntime::run makes per event: the preemption ladder per
  // arrival (over a timing SchedHost), the conservation check after it,
  // releases on departure and one emulation per epoch boundary. Retries,
  // readmissions and fault application are not replayed.
  void replay(const Episode& episode, Tracer& tracer) {
    const core::DotInstance& scenario = scenario_;
    const runtime::RuntimeOptions opts = options(episode);
    const Tracer::Scope root = tracer.open("replay");
    core::OffloadnnController controller(scenario.resources, scenario.radio,
                                         opts.controller);
    const core::Fingerprint digest = core::catalog_digest(scenario.catalog);
    sched::ControllerSchedHost inner(controller, scenario.catalog, &digest);
    TimingSchedHost host(inner, tracer);

    struct Job {
      std::uint64_t id = 0;
      double priority = 0.0;
      bool active = false;
      bool downgraded = false;
      core::DotTask task;
      core::TaskPlan plan;
    };
    std::vector<Job> jobs;
    std::unordered_map<std::uint64_t, std::size_t> by_id;

    auto served = [&] {
      std::vector<std::pair<std::string, const core::TaskPlan*>> list;
      for (const Job& job : jobs)
        if (job.active) list.emplace_back(job.task.spec.name, &job.plan);
      return list;
    };

    auto on_event = [&](const runtime::WorkloadEvent& event) {
      const core::DotTask& tmpl = scenario.tasks[event.template_index];
      if (event.kind == runtime::WorkloadEventKind::kDeparture) {
        const auto it = by_id.find(event.job_id);
        if (it == by_id.end() || !jobs[it->second].active) return;
        Job& job = jobs[it->second];
        host.release(job.task.spec.name);
        job.active = false;
        return;
      }
      Job job;
      job.id = event.job_id;
      job.priority = event.has_qos ? event.priority : tmpl.spec.priority;
      job.task = tmpl;
      job.task.spec.name = job_name(event.job_id, tmpl);
      job.task.spec.correlation = event.job_id;
      job.task.spec.priority = job.priority;
      std::vector<sched::SchedCandidate> candidates;
      for (const Job& other : jobs)
        if (other.active)
          candidates.push_back(sched::SchedCandidate{
              other.id, other.priority, other.task, other.downgraded});
      sched::LadderOutcome outcome;
      {
        const Tracer::Scope span = tracer.open("sched.ladder", event.job_id);
        outcome = sched::run_preemption_ladder(host, job.task, candidates,
                                               opts.sched);
      }
      ladder_probes_ += outcome.probes;
      for (const sched::VictimOutcome& victim : outcome.victims) {
        Job& other = jobs[by_id.at(victim.id)];
        if (victim.fate == sched::VictimOutcome::Fate::kPreempted) {
          other.active = false;
        } else {
          other.plan = victim.plan;
          other.task = victim.task;
          if (victim.fate == sched::VictimOutcome::Fate::kDowngraded)
            other.downgraded = true;
        }
      }
      if (outcome.action != sched::SchedAction::kReject) {
        ++ladder_admits_;
        job.active = true;
        job.plan = outcome.plan;
      }
      by_id.emplace(job.id, jobs.size());
      jobs.push_back(std::move(job));
      std::optional<std::string> violation;
      {
        const Tracer::Scope span =
            tracer.open("sched.conservation", event.job_id);
        violation = sched::find_orphaned_resources(controller, served(),
                                                   scenario.catalog);
      }
      if (violation)
        throw std::logic_error("replay left orphaned resources: " + *violation);
    };

    auto on_epoch = [&](std::size_t epoch) {
      core::DeploymentPlan live;
      for (const Job& job : jobs)
        if (job.active) live.tasks.push_back(job.plan);
      if (live.tasks.empty()) return;
      sim::EmulatorOptions emu;
      emu.duration_s = opts.emulation_window_s;
      emu.seed = splitmix64(opts.seed + epoch);
      emu.poisson_arrivals = opts.poisson_emulation;
      const Tracer::Scope span = tracer.open("sim.emulate");
      sim::EdgeEmulator emulator(std::move(live), scenario.radio,
                                 scenario.resources.compute_capacity_s, emu);
      emulated_requests_ += emulator.run().total_requests;
    };

    replay_events(episode.trace, opts.epoch_s, on_event, on_epoch);
  }

  // The large scenario: 20 task templates over a 125-structure catalog.
  const core::DotInstance scenario_ =
      core::make_large_scenario(core::RequestRate::kLow);
  std::vector<Episode> episodes_;
  std::size_t ladder_probes_ = 0;
  std::size_t ladder_admits_ = 0;
  std::size_t emulated_requests_ = 0;
};

// --- fleet_probe -----------------------------------------------------------

class FleetProbe : public Workload {
 public:
  static constexpr std::size_t kEpisodes = 100;
  static constexpr std::size_t kCells = 8;

  explicit FleetProbe(std::uint64_t seed) {
    for (std::size_t e = 0; e < kEpisodes; ++e) {
      Episode episode;
      episode.seed = episode_seed(seed, e);
      generate(episode);
      episodes_.push_back(std::move(episode));
    }
  }

  std::size_t episode_count() const override { return episodes_.size(); }

  Outcome op(std::size_t index, bool corrupt) override {
    const core::DotInstance& scenario = scenario_;
    const Episode& episode = episodes_[index];
    Outcome out;
    cluster::ClusterRuntime runtime(scenario.catalog, cells_,
                                    scenario.radio, scenario.tasks,
                                    options(episode));
    const Clock::time_point run_start = Clock::now();
    cluster::ClusterReport report = runtime.run(episode.trace);
    out.run_wall_s = seconds_since(run_start);
    if (corrupt) ++report.classes.front().admitted;
    const Clock::time_point report_start = Clock::now();
    std::ostringstream json;
    report.write_json(json);
    out.report_s = seconds_since(report_start);
    out.digest = fnv1a(json.str());

    out.arrivals = report.total_arrivals();
    out.admitted = report.total_admitted();
    for (const cluster::ClusterEpochSnapshot& s : report.timeline) {
      out.requests += s.samples;
      out.violations += s.slo_violations;
    }
    std::size_t placed = 0, spilled = 0, moved_in = 0, moved_out = 0;
    for (const cluster::CellReport& cell : report.cells) {
      placed += cell.admitted_preferred + cell.admitted_spillover;
      spilled += cell.admitted_spillover;
      moved_in += cell.migrations_in;
      moved_out += cell.migrations_out;
    }
    out.error = check_classes(report.classes);
    if (out.error.empty() && placed != out.admitted)
      out.error = "cell placements do not sum to admissions";
    if (out.error.empty() &&
        (moved_in != report.migration.migrated ||
         moved_out != report.migration.migrated ||
         report.migration.migrated + report.migration.no_target !=
             report.migration.attempted))
      out.error = "migration ledger does not balance";

    if (const auto& plans = runtime.dispatcher().plan_cache()) {
      const core::PlanCacheStats s = plans->stats();
      out.plan_hits = static_cast<double>(s.hits);
      out.plan_lookups = static_cast<double>(s.hits + s.misses);
    }
    for (std::size_t c = 0; c < runtime.dispatcher().cell_count(); ++c) {
      if (const core::SolverCache* memo =
              runtime.dispatcher().cell(c).controller().solver_cache()) {
        const core::SolverCacheStats s = memo->stats();
        out.clique_hits += static_cast<double>(s.clique_hits);
        out.clique_lookups +=
            static_cast<double>(s.clique_hits + s.clique_misses);
      }
    }
    out.spilled = static_cast<double>(spilled);
    out.placed = static_cast<double>(placed);
    return out;
  }

  void traced_op(std::size_t index, Tracer& tracer) override {
    tracer.set_episode(index);
    trace_inputs_and_solver(scenario_, tracer, [&] {
      Episode regenerated;
      regenerated.seed = episodes_[index].seed;
      generate(regenerated);
    });
    replay(episodes_[index], tracer);
  }

  void layer_metrics(const std::map<std::string, SpanStats>& spans,
                     const std::vector<Outcome>& outcomes,
                     Layers& layers) override {
    auto get = [&](const char* name) -> const SpanStats& {
      return span_stats(spans, name);
    };
    layers["cluster.admit_p50_us"] = get("cluster.admit").p50();
    layers["cluster.admit_p90_us"] = get("cluster.admit").p90();
    layers["cluster.admit_calls"] = get("cluster.admit").count();
    layers["cluster.migrate_p50_us"] = get("cluster.migrate").p50();
    layers["cluster.migrate_calls"] = get("cluster.migrate").count();
    layers["cluster.release_p50_us"] = get("cluster.release").p50();
    double spilled = 0, placed = 0, hits = 0, lookups = 0;
    for (const Outcome& o : outcomes) {
      spilled += o.spilled;
      placed += o.placed;
      hits += o.plan_hits;
      lookups += o.plan_lookups;
    }
    layers["cluster.plan_cache_hit_frac"] = ratio(hits, lookups);
    layers["cluster.spill_frac"] = ratio(spilled, placed);
    layers["sim.emulate_p50_ms"] = get("sim.emulate").p50() / 1e3;
    layers["sim.requests_per_s"] =
        ratio(static_cast<double>(emulated_requests_),
              get("sim.emulate").total_us / 1e6);
  }

 private:
  struct Episode {
    std::uint64_t seed = 0;
    runtime::WorkloadTrace trace;
  };

  void generate(Episode& episode) const {
    runtime::WorkloadOptions workload;
    workload.horizon_s = 20.0;
    workload.seed = episode.seed;
    workload.arrival_rate_per_s = 1.2 * kCells;
    workload.mean_holding_s = 25.0;
    workload.burst_count = 2;
    workload.burst_arrivals_mean = 8.0 * kCells;
    workload.burst_span_s = 3.0;
    episode.trace = runtime::generate_workload(scenario_.tasks.size(), workload);
  }

  static cluster::ClusterOptions options(const Episode& episode) {
    cluster::ClusterOptions options;
    options.seed = episode.seed;
    options.epoch_s = 10.0;
    options.emulation_window_s = 5.0;
    options.retry.max_attempts = 3;
    options.retry.backoff_s = 2.0;
    options.retry.downgrade_final_attempt = true;
    options.dispatch.policy = cluster::PlacementPolicy::kCostProbe;
    options.dispatch.spillover = true;
    options.dispatch.parallel_probe = true;
    options.migrate_on_slo = true;
    options.migration_batch = 2;
    return options;
  }

  // The replay walks the trace through the dispatcher calls
  // ClusterRuntime::run makes: admit per arrival, release per departure,
  // one emulation per cell per epoch and the SLO migration pass. Retries
  // are not replayed.
  void replay(const Episode& episode, Tracer& tracer) {
    const core::DotInstance& scenario = scenario_;
    const cluster::ClusterOptions opts = options(episode);
    const Tracer::Scope root = tracer.open("replay");
    cluster::ClusterDispatcher dispatcher(cells_, scenario.radio,
                                          opts.controller, opts.dispatch);
    const core::Fingerprint digest = core::catalog_digest(scenario.catalog);

    struct Job {
      std::uint64_t id = 0;
      double priority = 0.0;
      bool active = false;
      std::size_t cell = 0;
      core::DotTask task;
      core::TaskPlan plan;
    };
    std::vector<Job> jobs;
    std::unordered_map<std::uint64_t, std::size_t> by_id;

    auto on_event = [&](const runtime::WorkloadEvent& event) {
      const core::DotTask& tmpl = scenario.tasks[event.template_index];
      if (event.kind == runtime::WorkloadEventKind::kDeparture) {
        const auto it = by_id.find(event.job_id);
        if (it == by_id.end() || !jobs[it->second].active) return;
        Job& job = jobs[it->second];
        const Tracer::Scope span = tracer.open("cluster.release", job.id);
        dispatcher.release(job.task.spec.name);
        job.active = false;
        return;
      }
      Job job;
      job.id = event.job_id;
      job.priority = tmpl.spec.priority;
      job.task = tmpl;
      job.task.spec.name = job_name(event.job_id, tmpl);
      job.task.spec.correlation = event.job_id;
      cluster::AdmissionOutcome outcome;
      {
        const Tracer::Scope span = tracer.open("cluster.admit", job.id);
        outcome = dispatcher.admit(scenario.catalog, job.task, &digest);
      }
      if (outcome.admitted) {
        job.active = true;
        job.cell = outcome.cell;
        job.plan = outcome.plan;
      }
      by_id.emplace(job.id, jobs.size());
      jobs.push_back(std::move(job));
    };

    auto on_epoch = [&](std::size_t epoch) {
      std::vector<std::size_t> violating;
      for (std::size_t c = 0; c < kCells; ++c) {
        core::DeploymentPlan live;
        for (const Job& job : jobs)
          if (job.active && job.cell == c) live.tasks.push_back(job.plan);
        if (live.tasks.empty()) continue;
        sim::EmulatorOptions emu;
        emu.duration_s = opts.emulation_window_s;
        emu.seed = splitmix64(opts.seed + epoch * kCells + c);
        emu.poisson_arrivals = opts.poisson_emulation;
        const Tracer::Scope span = tracer.open("sim.emulate");
        sim::EdgeEmulator emulator(std::move(live), dispatcher.cell(c).radio(),
                                   dispatcher.cell(c).resources().compute_capacity_s,
                                   emu);
        const sim::EmulationReport measured = emulator.run();
        emulated_requests_ += measured.total_requests;
        if (measured.total_violations() > 0) violating.push_back(c);
      }
      for (const std::size_t source : violating) {
        std::vector<std::size_t> candidates;
        for (std::size_t j = 0; j < jobs.size(); ++j)
          if (jobs[j].active && jobs[j].cell == source) candidates.push_back(j);
        std::sort(candidates.begin(), candidates.end(),
                  [&](std::size_t a, std::size_t b) {
                    if (jobs[a].priority != jobs[b].priority)
                      return jobs[a].priority < jobs[b].priority;
                    return jobs[a].id < jobs[b].id;
                  });
        if (candidates.size() > opts.migration_batch)
          candidates.resize(opts.migration_batch);
        for (const std::size_t j : candidates) {
          std::vector<std::size_t> targets;
          for (std::size_t c = 0; c < kCells; ++c)
            if (c != source) targets.push_back(c);
          std::sort(targets.begin(), targets.end(),
                    [&](std::size_t a, std::size_t b) {
                      const double ha = dispatcher.cell(a).normalized_headroom();
                      const double hb = dispatcher.cell(b).normalized_headroom();
                      if (ha != hb) return ha > hb;
                      return a < b;
                    });
          for (const std::size_t target : targets) {
            core::TaskPlan plan;
            bool moved = false;
            {
              const Tracer::Scope span =
                  tracer.open("cluster.migrate", jobs[j].id);
              moved = dispatcher.migrate(scenario.catalog, jobs[j].task,
                                         jobs[j].task.spec.name, target, &plan);
            }
            if (moved) {
              jobs[j].cell = target;
              jobs[j].plan = plan;
              break;
            }
          }
        }
      }
    };

    replay_events(episode.trace, opts.epoch_s, on_event, on_epoch);
  }

  const core::DotInstance scenario_ =
      core::make_large_scenario(core::RequestRate::kLow);
  // One fixed fleet for every episode and seed: the seed varies the
  // traffic, not the hardware, so episodes cost alike.
  const std::vector<cluster::CellSpec> cells_ = cluster::make_cells(
      kCells, scenario_.resources, /*seed=*/2024, /*spread=*/0.35);
  std::vector<Episode> episodes_;
  std::size_t emulated_requests_ = 0;
};

// --- substrate_profile -----------------------------------------------------

nn::ResNetConfig substrate_resnet_config() {
  // The network core::measure_from_substrate profiles.
  nn::ResNetConfig config;
  config.base_width = 8;
  config.input_size = 16;
  config.num_classes = 8;
  return config;
}

model::VitConfig substrate_vit_config() {
  // The network model::measure_transformer_costs profiles.
  model::VitConfig config;
  config.blocks_per_stage = {1, 1, 2, 2};
  return config;
}

class SubstrateProfile : public Workload {
 public:
  static constexpr std::size_t kEpisodes = 8;
  static constexpr std::size_t kRepetitions = 7;

  explicit SubstrateProfile(std::uint64_t seed) {
    for (std::size_t e = 0; e < kEpisodes; ++e) {
      Episode episode;
      episode.seed = episode_seed(seed, e);
      episode.analytic_error = check_analytic(episode.seed, episode.digest);
      episodes_.push_back(episode);
    }
  }

  std::size_t episode_count() const override { return episodes_.size(); }

  Outcome op(std::size_t index, bool corrupt) override {
    const Episode& episode = episodes_[index];
    Outcome out;
    core::StageCosts resnet = core::measure_from_substrate(episode.seed);
    const core::StageCosts vit = model::measure_transformer_costs(episode.seed);
    if (corrupt) resnet.inference_time_s[0] = std::nan("");
    std::vector<double> costs;
    const std::array<const core::StageCosts*, 2> measured = {&resnet, &vit};
    for (const core::StageCosts* c : measured) {
      costs.insert(costs.end(), c->inference_time_s.begin(),
                   c->inference_time_s.end());
      costs.insert(costs.end(), c->memory_bytes.begin(), c->memory_bytes.end());
      costs.insert(costs.end(), c->pruned_inference_time_s.begin(),
                   c->pruned_inference_time_s.end());
      costs.insert(costs.end(), c->pruned_memory_bytes.begin(),
                   c->pruned_memory_bytes.end());
    }
    costs.insert(costs.end(), vit.exit_head_inference_time_s.begin(),
                 vit.exit_head_inference_time_s.end());
    costs.insert(costs.end(), vit.exit_head_memory_bytes.begin(),
                 vit.exit_head_memory_bytes.end());
    out.arrivals = costs.size();
    for (const double c : costs)
      if (std::isfinite(c) && c > 0.0) ++out.admitted;
    out.requests = out.arrivals;
    out.violations = out.arrivals - out.admitted;
    out.digest = episode.digest;
    out.error = episode.analytic_error;
    if (out.error.empty() && out.admitted != out.arrivals)
      out.error = "a measured stage cost is not finite and positive";
    return out;
  }

  // Times every stage and head forward of both networks, kRepetitions
  // calls each after one warm-up call, as the profilers do.
  void traced_op(std::size_t index, Tracer& tracer) override {
    tracer.set_episode(index);
    const std::uint64_t seed = episodes_[index].seed;
    static constexpr const char* kResnetStage[] = {
        "nn.resnet_stage0", "nn.resnet_stage1", "nn.resnet_stage2",
        "nn.resnet_stage3"};
    static constexpr const char* kVitStage[] = {
        "nn.vit_stage0", "nn.vit_stage1", "nn.vit_stage2", "nn.vit_stage3"};
    static constexpr const char* kVitExit[] = {
        "nn.vit_exit0", "nn.vit_exit1", "nn.vit_exit2", "nn.vit_exit3"};
    const Tracer::Scope root = tracer.open("replay");
    auto timed = [&](const char* name, const std::function<void()>& call) {
      call();
      for (std::size_t r = 0; r < kRepetitions; ++r) {
        const Tracer::Scope span = tracer.open(name);
        call();
      }
    };
    {
      util::Rng rng(seed);
      nn::ResNet net(substrate_resnet_config(), rng);
      nn::Tensor activation = random_input(3, net.config().input_size, seed);
      for (std::size_t s = 0; s < nn::kNumStages; ++s) {
        nn::Tensor output;
        timed(kResnetStage[s],
              [&] { output = net.forward_stage(s, activation, false); });
        activation = std::move(output);
      }
      timed("nn.resnet_head", [&] { (void)net.forward_head(activation, false); });
    }
    {
      util::Rng rng(seed);
      model::VisionTransformer vit(substrate_vit_config(), rng);
      const nn::Tensor images =
          random_input(vit.config().in_channels, vit.config().image_size, seed);
      nn::Tensor tokens;
      timed("nn.vit_embed", [&] { tokens = vit.embed(images, false); });
      for (std::size_t s = 0; s < model::kNumStages; ++s) {
        nn::Tensor output;
        timed(kVitStage[s], [&] { output = vit.forward_stage(s, tokens, false); });
        timed(kVitExit[s], [&] { (void)vit.forward_exit(s, output, false); });
        tokens = std::move(output);
      }
    }
  }

  void layer_metrics(const std::map<std::string, SpanStats>& spans,
                     const std::vector<Outcome>&, Layers& layers) override {
    for (const auto& [name, stats] : spans)
      if (name.rfind("nn.", 0) == 0) layers[name + "_us"] = stats.p50();

    // Exact counts of the profiled networks (seed-independent shapes).
    util::Rng rng(1);
    nn::ResNet net(substrate_resnet_config(), rng);
    model::VisionTransformer vit(substrate_vit_config(), rng);
    double macs = 0, reuse = 0;
    for (std::size_t s = 0; s < nn::kNumStages; ++s) {
      macs += static_cast<double>(net.stage_macs_per_sample(s) +
                                  vit.stage_macs_per_sample(s));
      const nn::ConvReuse r = net.stage_reuse_per_sample(s);
      reuse += static_cast<double>(r.input_reuse_bytes + r.kernel_reuse_bytes);
    }
    layers["nn.macs"] = macs;
    layers["nn.reuse_bytes"] = reuse;

    const std::pair<nn::GemmLane, const char*> lanes[] = {
        {nn::GemmLane::kScalar, "nn.sgemm_gflops.scalar"},
        {nn::GemmLane::kAvx2, "nn.sgemm_gflops.avx2"},
        {nn::GemmLane::kAvx512, "nn.sgemm_gflops.avx512"}};
    for (const auto& [lane, name] : lanes) layers[name] = sgemm_gflops(lane);
    layers["util.parallel_for_us"] = parallel_for_us();
  }

 private:
  struct Episode {
    std::uint64_t seed = 0;
    std::string analytic_error;
    std::uint64_t digest = 0;  // over the analytic counts
  };

  static nn::Tensor random_input(std::size_t channels, std::size_t size,
                                 std::uint64_t seed) {
    util::Rng rng(seed ^ 0x5EEDULL);
    nn::Tensor input({1, channels, size, size});
    for (float& x : input.data()) x = static_cast<float>(rng.uniform());
    return input;
  }

  // The profilers' analytic memory and MAC counts must equal the models'
  // own per-stage parameter bytes and MACs.
  static std::string check_analytic(std::uint64_t seed, std::uint64_t& digest) {
    std::string counts;
    util::Rng rng(seed);
    nn::ResNet net(substrate_resnet_config(), rng);
    const nn::ModelProfile resnet = nn::Profiler(1, seed).profile(net);
    for (std::size_t s = 0; s < nn::kNumStages; ++s) {
      const nn::BlockProfile& bp = resnet.stages[s];
      if (bp.macs != net.stage_macs_per_sample(s) ||
          bp.param_count * sizeof(float) != net.stage_parameter_bytes(s) ||
          bp.memory_bytes < net.stage_parameter_bytes(s))
        return "resnet stage " + std::to_string(s) + " analytic counts differ";
      counts += std::to_string(bp.macs) + "," + std::to_string(bp.memory_bytes) +
                ";";
    }
    util::Rng vit_rng(seed);
    model::VisionTransformer vit(substrate_vit_config(), vit_rng);
    const model::TransformerProfile vp = model::profile_transformer(vit, 1, seed);
    for (std::size_t s = 0; s < model::kNumStages; ++s) {
      const nn::BlockProfile& bp = vp.stages[s];
      if (bp.macs != vit.stage_macs_per_sample(s) ||
          bp.param_count * sizeof(float) != vit.stage_param_bytes(s) ||
          bp.memory_bytes < vit.stage_param_bytes(s))
        return "vit stage " + std::to_string(s) + " analytic counts differ";
      counts += std::to_string(bp.macs) + "," + std::to_string(bp.memory_bytes) +
                ";";
    }
    digest = fnv1a(counts);
    return "";
  }

  // The 3x3 convolution of ResNet stage 0 lowered to GEMM — (M, N, K) =
  // (8, 256, 72), the widest of the equal-MAC conv GEMMs the profile runs.
  static double sgemm_gflops(nn::GemmLane lane) {
    if (!nn::gemm_lane_available(lane)) return 0.0;
    constexpr std::size_t m = 8, n = 256, k = 72;
    std::vector<float> a(m * k), b(k * n), c(m * n);
    std::mt19937 rng(7);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    for (float& x : a) x = dist(rng);
    for (float& x : b) x = dist(rng);
    nn::set_gemm_lane(lane);
    for (int i = 0; i < 50; ++i) nn::sgemm(m, n, k, a.data(), b.data(), c.data());
    std::vector<double> rates;
    for (int trial = 0; trial < 5; ++trial) {
      constexpr int kCalls = 400;
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < kCalls; ++i)
        nn::sgemm(m, n, k, a.data(), b.data(), c.data());
      rates.push_back(2.0 * m * n * k * kCalls / seconds_since(start) / 1e9);
    }
    nn::set_gemm_lane(nn::GemmLane::kAuto);
    return median(rates);
  }

  // Dispatch and join of a trivial global_parallel_for on a 2-worker pool:
  // the serial pool of the runs dispatches nothing. The pool goes back to
  // serial afterwards.
  static double parallel_for_us() {
    util::set_thread_count(2);
    std::vector<int> touched(64, 0);
    std::vector<double> times;
    for (int i = 0; i < 2000; ++i) {
      const Clock::time_point start = Clock::now();
      util::global_parallel_for(touched.size(),
                                [&](std::size_t j) { touched[j] += 1; });
      times.push_back(seconds_since(start) * 1e6);
    }
    util::set_thread_count(1);
    return median(times);
  }

  std::vector<Episode> episodes_;
};

// ---------------------------------------------------------------------------

// The per-layer metric names, in BENCHMARK.json order. A layer a workload
// does not run reads 0 there.
const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "runtime.gen_ms", "runtime.report_ms", "runtime.unattributed_frac",
      "core.probe_p50_us", "core.probe_p90_us", "core.probe_calls",
      "core.commit_p50_us", "core.commit_calls", "core.release_p50_us",
      "core.release_calls", "core.plan_cache_hit_frac",
      "core.solver_cache_clique_hit_frac", "core.tree_p50_us",
      "core.solve_p50_us", "sched.ladder_p50_us", "sched.ladder_p90_us",
      "sched.ladder_calls", "sched.ladder_self_frac",
      "sched.probes_per_ladder", "sched.ladder_admit_frac",
      "sched.conservation_p50_us", "sim.emulate_p50_ms", "sim.requests_per_s",
      "cluster.admit_p50_us", "cluster.admit_p90_us", "cluster.admit_calls",
      "cluster.migrate_p50_us", "cluster.migrate_calls",
      "cluster.release_p50_us", "cluster.plan_cache_hit_frac",
      "cluster.spill_frac", "fault.displaced_per_op", "fault.readmitted_frac",
      "nn.resnet_stage0_us", "nn.resnet_stage1_us", "nn.resnet_stage2_us",
      "nn.resnet_stage3_us", "nn.resnet_head_us", "nn.vit_embed_us",
      "nn.vit_stage0_us", "nn.vit_stage1_us", "nn.vit_stage2_us",
      "nn.vit_stage3_us", "nn.vit_exit0_us", "nn.vit_exit1_us",
      "nn.vit_exit2_us", "nn.vit_exit3_us", "nn.sgemm_gflops.scalar",
      "nn.sgemm_gflops.avx2", "nn.sgemm_gflops.avx512", "nn.macs",
      "nn.reuse_bytes", "util.parallel_for_us", "trace.untraced_op_p50_ms",
      "trace.traced_op_p50_ms", "trace.overhead_op_p50_frac",
      "trace.overhead_ops_per_s_frac"};
  return names;
}

const char* layer_unit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_frac")) return "fraction";
  if (ends("_per_s")) return "1/s";
  if (name.rfind("nn.sgemm_gflops", 0) == 0) return "GFLOP/s";
  if (ends("_bytes")) return "bytes";
  return "count";
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "cell_deadline") return std::make_unique<CellDeadline>(seed);
  if (name == "fleet_probe") return std::make_unique<FleetProbe>(seed);
  if (name == "substrate_profile")
    return std::make_unique<SubstrateProfile>(seed);
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t pool = 1;
  bool corrupt = false;
  std::string span_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--pool" && has_value) {
      args.pool = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--corrupt") {
      args.corrupt = true;
    } else if (arg == "--span-out" && has_value) {
      args.span_out = argv[++i];
    } else {
      return false;
    }
  }
  return have_workload && args.seconds > 0.0 && args.pool >= 1;
}

void print_metric(std::ostream& out, bool& first, const std::string& name,
                  double value, const char* unit) {
  out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
      << runtime::json_double(std::isfinite(value) ? value : 0.0)
      << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

int run(const Args& args) {
  util::set_log_level(util::LogLevel::kWarn);
  const double host_probe_ns = host_probe_ns_per_step();

  // Set-up covers everything before the first timed op: the scenario and
  // catalog, the episodes' traces and fault plans, the pool and one untimed
  // warm-up op. The median of all set-up rounds is the metric: five before
  // the timed loop and, in an untraced run, kLoopSetups more spread over it,
  // so the median sees the host over the whole run and not only its first
  // second.
  constexpr int kLoopSetups = 7;
  std::vector<double> setup_times;
  auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    util::set_thread_count(args.pool);
    std::unique_ptr<Workload> fresh = make_workload(args.workload, args.seed);
    if (fresh) (void)fresh->op(0, false);
    setup_times.push_back(seconds_since(start));
    return fresh;
  };
  std::unique_ptr<Workload> workload;
  for (int round = 0; round < 5; ++round) {
    workload.reset();
    workload = set_up();
    if (!workload) return 2;
  }

  const std::size_t episodes = workload->episode_count();
  std::vector<std::uint64_t> first_digest(episodes, 0);
  std::vector<Outcome> outcomes;
  std::vector<double> op_ms, traced_ms;
  std::vector<std::vector<double>> episode_ms(episodes);
  std::size_t attempted = 0, failed = 0;
  Tracer tracer;
  std::string first_error;

  auto untraced = [&](std::size_t episode) {
    ++attempted;
    const Clock::time_point start = Clock::now();
    Outcome out;
    try {
      out = workload->op(episode, args.corrupt);
    } catch (const std::exception& e) {
      out.error = std::string("op threw: ") + e.what();
    }
    op_ms.push_back(seconds_since(start) * 1e3);
    episode_ms[episode].push_back(op_ms.back());
    // Every run of one episode must produce the same report bytes.
    if (out.error.empty()) {
      if (first_digest[episode] == 0)
        first_digest[episode] = out.digest;
      else if (first_digest[episode] != out.digest)
        out.error = "report bytes differ between runs of one episode";
    }
    if (!out.error.empty()) {
      ++failed;
      if (first_error.empty()) first_error = out.error;
    }
    outcomes.push_back(std::move(out));
  };

  // Closed loop until the time is up, and at least one pass over every
  // episode so the digest covers them all. An untraced run makes at least
  // kMinPasses passes over the episodes, so each has several op times.
  constexpr std::size_t kMinPasses = 2;
  const std::size_t min_ops = args.trace ? episodes : kMinPasses * episodes;
  std::size_t op_index = 0;
  int loop_setups = 0;
  double untraced_wall = 0.0, traced_wall = 0.0, loop_setup_wall = 0.0;
  const Clock::time_point loop_start = Clock::now();
  while (op_index < min_ops || seconds_since(loop_start) < args.seconds) {
    if (!args.trace && loop_setups < kLoopSetups &&
        seconds_since(loop_start) >=
            args.seconds * (loop_setups + 1) / (kLoopSetups + 1)) {
      // The fresh workload replaces the old one, which frees its memory
      // first; it holds the same episodes.
      const Clock::time_point s = Clock::now();
      workload.reset();
      workload = set_up();
      loop_setup_wall += seconds_since(s);
      ++loop_setups;
    }
    const std::size_t episode = op_index % episodes;
    const Clock::time_point a = Clock::now();
    untraced(episode);
    untraced_wall += seconds_since(a);
    if (args.trace) {
      ++attempted;
      const Clock::time_point b = Clock::now();
      try {
        workload->traced_op(episode, tracer);
      } catch (const std::exception& e) {
        ++failed;
        if (first_error.empty())
          first_error = std::string("traced op threw: ") + e.what();
      }
      traced_ms.push_back(seconds_since(b) * 1e3);
      traced_wall += seconds_since(b);
    }
    ++op_index;
  }
  const double loop_wall = seconds_since(loop_start);

  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (const std::uint64_t d : first_digest) digest = fnv1a(hex64(d), digest);

  // The output fractions come from the first pass alone, one op per
  // episode, so they depend on the seed and not on how many ops fit.
  double arrivals = 0, admitted = 0, requests = 0, violations = 0;
  for (std::size_t i = 0; i < episodes && i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    arrivals += static_cast<double>(o.arrivals);
    admitted += static_cast<double>(o.admitted);
    requests += static_cast<double>(o.requests);
    violations += static_cast<double>(o.violations);
  }
  // The op percentiles are taken over the episodes, each at the fastest of
  // its own op times. Every op of one episode does identical work, so the
  // fastest is its cost with host slowdowns filtered out: a slow stretch of
  // the run moves it only if it covers every pass of that episode, while raw
  // per-op percentiles (the tail above all) follow every slow stretch.
  std::vector<double> episode_best_ms;
  std::size_t passes = op_ms.size();
  for (const std::vector<double>& times : episode_ms) {
    episode_best_ms.push_back(*std::min_element(times.begin(), times.end()));
    passes = std::min(passes, times.size());
  }
  const double p50 = percentile(episode_best_ms, 50.0);
  const double p90 = percentile(episode_best_ms, 90.0);
  const std::size_t beyond_p90 = static_cast<std::size_t>(std::count_if(
      episode_best_ms.begin(), episode_best_ms.end(),
      [&](double t) { return t > p90; }));
  // The throughput at those same costs: one pass over the episodes over the
  // sum of their fastest op times. The raw rate of the whole timed loop,
  // slow stretches included, goes to the info line.
  const double best_pass_s =
      std::accumulate(episode_best_ms.begin(), episode_best_ms.end(), 0.0) / 1e3;
  const double loop_ops_per_s =
      static_cast<double>(op_ms.size()) / (loop_wall - loop_setup_wall);

  std::ostringstream info;
  info << "{\"info\": {\"workload\": \"" << args.workload
       << "\", \"seed\": " << args.seed << ", \"pool\": " << args.pool
       << ", \"episodes\": " << episodes << ", \"report_digest\": \""
       << hex64(digest) << "\", \"op_samples\": " << op_ms.size()
       << ", \"passes\": " << passes
       << ", \"episodes_beyond_p90\": " << beyond_p90
       << ", \"loop_ops_per_s\": " << runtime::json_double(loop_ops_per_s)
       << ", \"arrivals_per_op\": "
       << runtime::json_double(ratio(arrivals, static_cast<double>(episodes)))
       << ", \"host_probe_ns\": " << runtime::json_double(host_probe_ns)
       << ", \"ops_attempted\": " << attempted << ", \"ops_failed\": " << failed;
  if (!first_error.empty()) {
    std::string escaped;
    for (const char c : first_error) escaped += (c == '"' || c == '\\') ? '\'' : c;
    info << ", \"first_error\": \"" << escaped << "\"";
  }
  info << "}}";
  std::cout << info.str() << "\n";

  std::ostringstream result;
  result << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  bool first = true;
  if (!args.trace) {
    print_metric(result, first, "ops_per_s",
                 ratio(static_cast<double>(episodes), best_pass_s), "1/s");
    print_metric(result, first, "op_p50_ms", p50, "ms");
    print_metric(result, first, "op_p90_ms", p90, "ms");
    print_metric(result, first, "peak_rss_mb", peak_rss_mb(), "MB");
    print_metric(result, first, "setup_s", median(setup_times), "s");
    print_metric(result, first, "admitted_frac", ratio(admitted, arrivals),
                 "fraction");
    print_metric(result, first, "slo_met_frac",
                 ratio(requests - violations, requests), "fraction");
  } else {
    const std::map<std::string, SpanStats> spans = aggregate(tracer.spans());
    Layers layers;
    for (const std::string& name : layer_names()) layers[name] = 0.0;
    workload->layer_metrics(spans, outcomes, layers);

    // Layers every churn workload shares.
    auto get = [&](const char* name) -> const SpanStats* {
      const auto it = spans.find(name);
      return it == spans.end() ? nullptr : &it->second;
    };
    if (const SpanStats* gen = get("runtime.gen"))
      layers["runtime.gen_ms"] = gen->p50() / 1e3;
    if (const SpanStats* tree = get("core.tree"))
      layers["core.tree_p50_us"] = tree->p50();
    if (const SpanStats* solve = get("core.solve"))
      layers["core.solve_p50_us"] = solve->p50();
    double run_wall = 0, hits = 0, lookups = 0, chits = 0, clookups = 0;
    std::vector<double> report_ms;
    for (const Outcome& o : outcomes) {
      run_wall += o.run_wall_s;
      hits += o.plan_hits;
      lookups += o.plan_lookups;
      chits += o.clique_hits;
      clookups += o.clique_lookups;
      if (o.run_wall_s > 0.0) report_ms.push_back(o.report_s * 1e3);
    }
    if (run_wall > 0.0) {
      layers["runtime.report_ms"] = median(report_ms);
      layers["core.plan_cache_hit_frac"] = ratio(hits, lookups);
      layers["core.solver_cache_clique_hit_frac"] = ratio(chits, clookups);
      // Self time of every layer span in the replays, against the wall of
      // run() on the same episodes.
      double layer_self_us = 0.0;
      for (const auto& [name, stats] : spans)
        if (name != "replay" && name != "runtime.gen" && name != "core.tree" &&
            name != "core.solve")
          layer_self_us += stats.self_us;
      layers["runtime.unattributed_frac"] = 1.0 - layer_self_us / 1e6 / run_wall;
    }
    const double untraced_p50 = percentile(op_ms, 50.0);
    const double traced_p50 = percentile(traced_ms, 50.0);
    layers["trace.untraced_op_p50_ms"] = untraced_p50;
    layers["trace.traced_op_p50_ms"] = traced_p50;
    layers["trace.overhead_op_p50_frac"] = ratio(traced_p50, untraced_p50) - 1.0;
    const double untraced_rate = ratio(static_cast<double>(op_ms.size()), untraced_wall);
    const double traced_rate = ratio(static_cast<double>(traced_ms.size()), traced_wall);
    layers["trace.overhead_ops_per_s_frac"] = ratio(traced_rate, untraced_rate) - 1.0;

    for (const std::string& name : layer_names())
      print_metric(result, first, name, layers[name], layer_unit(name));
    if (!args.span_out.empty() && !tracer.write(args.span_out, 50000))
      std::cerr << "perfbench: cannot write spans to " << args.span_out << "\n";
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload cell_deadline|fleet_probe|"
                 "substrate_profile --seed N --seconds S --trace 0|1"
                 " [--pool N] [--corrupt] [--span-out PATH]\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
