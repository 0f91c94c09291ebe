#include "cluster/cluster_runtime.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "fault/injector.h"
#include "obs/alerts.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/conservation.h"
#include "sched/deadline_monitor.h"
#include "sched/policy.h"
#include "sim/emulator.h"
#include "util/fmt.h"
#include "util/logging.h"
#include "util/mathx.h"
#include "util/stopwatch.h"

namespace odn::cluster {
namespace {

enum class LoopEventKind : std::uint8_t {
  kArrival,
  kDeparture,
  kRetry,
  kEpoch,
};

struct LoopEvent {
  double time = 0.0;
  std::uint64_t sequence = 0;  // deterministic tie-break: push order
  LoopEventKind kind = LoopEventKind::kArrival;
  std::size_t job = 0;  // index into the jobs vector (epoch index for kEpoch)

  bool operator>(const LoopEvent& other) const noexcept {
    if (time != other.time) return time > other.time;
    return sequence > other.sequence;
  }
};

// The lifecycle a pending job's next attempt belongs to; it decides the
// placement path and which ledger the outcome is accounted to. A job
// placed through any route serves as kAdmission again.
enum class Route : std::uint8_t {
  kAdmission,         // first admission and its retries
  kFaultReadmission,  // displaced by a fault: fault ledger
  kSchedReadmission,  // evicted by the preemption ladder: sched ledger
};

// The counters one route's outcomes are charged to, and the literals its
// attempt span and flight events carry. The admission route's counters
// are its class's; it keeps its cell and ladder accounting at the
// placement site.
struct RouteLedger {
  std::size_t& placed_first_try;
  std::size_t& placed_after_retry;
  std::size_t& retries;
  std::size_t& rejected;
  std::size_t& departed;
  std::size_t& pending_at_end;
  const char* span_category;
  const char* span_name;
  const char* detail;            // retry and readmission events
  const char* exhausted_detail;  // the final rejection
};

struct Job {
  std::uint64_t trace_id = 0;
  std::size_t template_index = 0;
  std::size_t class_index = 0;
  std::string name;
  std::size_t attempts = 0;
  // Effective priority. Without scheduling (or QoS annotations) it mirrors
  // the template priority, so every pre-sched code path reads identical
  // values.
  double priority = 0.0;
  Route route = Route::kAdmission;
  // Re-shaped by the ladder's downgrade rung (scheduling only).
  bool sched_downgraded = false;
  // What the deadline bucket needs beyond "serving now"; its deadline
  // mirrors the configured default without scheduling or QoS annotations.
  sched::DeadlineHistory history;
  std::size_t cell = kNoCell;  // owning cell while kActive, set by serve()
  enum class State : std::uint8_t {
    kPending,   // awaiting an attempt or in retry backoff
    kActive,    // placed, serving
    kRejected,  // attempts exhausted
    kDeparted,  // released (or left while pending)
  } state = State::kPending;
  core::TaskPlan plan;          // valid while kActive
  core::DotTask admitted_task;  // the (possibly downgraded) admitted spec
};

// Epoch emulation seeds: one independent stream per (epoch, cell), derived
// from the base seed with a SplitMix64-style odd-constant mix. The stream
// index interleaves epoch * cell_count + cell, so a one-cell deployment
// draws stream `epoch`.
std::uint64_t epoch_seed(std::uint64_t base, std::size_t stream) noexcept {
  return base + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(stream) + 1);
}

// Adds one job's deadline bucket to an epoch snapshot or the final tally.
template <typename Buckets>
void count_bucket(sched::DeadlineBucket bucket, Buckets& buckets) {
  switch (bucket) {
    case sched::DeadlineBucket::kMet: ++buckets.met; break;
    case sched::DeadlineBucket::kMissed: ++buckets.missed; break;
    case sched::DeadlineBucket::kPreempted: ++buckets.preempted; break;
    case sched::DeadlineBucket::kDowngraded: ++buckets.downgraded; break;
    case sched::DeadlineBucket::kRejected: ++buckets.rejected; break;
  }
}

// Ladder host over one dispatcher cell. Probes are const dry-runs on that
// cell's controller; commits go through ClusterDispatcher::admit_on and
// releases through the dispatcher's owner map, so the ladder can never
// leave ownership bookkeeping and cell ledgers disagreeing.
class DispatcherSchedHost final : public sched::SchedHost {
 public:
  DispatcherSchedHost(ClusterDispatcher& dispatcher, std::size_t cell,
                      const edge::DnnCatalog& catalog)
      : dispatcher_(dispatcher), cell_(cell), catalog_(catalog) {}

  core::DeploymentPlan probe(
      std::vector<core::DotTask> requests) const override {
    return dispatcher_.cell(cell_).controller().probe_incremental(
        catalog_, std::move(requests));
  }
  core::DeploymentPlan commit(std::vector<core::DotTask> requests) override {
    return dispatcher_.admit_on(cell_, catalog_, std::move(requests));
  }
  bool release(const std::string& name) override {
    return dispatcher_.release(name) != kNoCell;
  }

 private:
  ClusterDispatcher& dispatcher_;
  std::size_t cell_;
  const edge::DnnCatalog& catalog_;
};

// Where an attempt landed: the owning cell (kNoCell when nothing admitted
// the job), its plan, and the ladder rung that admitted it.
struct Placement {
  std::size_t cell = kNoCell;
  core::TaskPlan plan;
  sched::SchedAction action = sched::SchedAction::kReject;
};

}  // namespace

void ClusterOptions::validate() const {
  RuntimeOptions::validate();
  if (migrate_on_slo && migration_batch == 0)
    throw std::invalid_argument(
        "ClusterOptions: migration enabled with zero batch");
}

ClusterRuntime::ClusterRuntime(edge::DnnCatalog catalog,
                               std::vector<CellSpec> cells,
                               edge::RadioModel radio,
                               std::vector<core::DotTask> templates,
                               ClusterOptions options)
    : catalog_(std::move(catalog)),
      radio_(radio),
      templates_(std::move(templates)),
      options_(std::move(options)),
      dispatcher_(std::move(cells), radio_, options_.controller,
                  options_.dispatch) {
  options_.validate();
  if (templates_.empty())
    throw std::invalid_argument("ClusterRuntime: no task templates");
  if (!options_.faults.empty() &&
      options_.faults.cell_count != dispatcher_.cell_count())
    throw std::invalid_argument(util::fmt(
        "ClusterRuntime: fault plan targets {} cells, cluster has {}",
        options_.faults.cell_count, dispatcher_.cell_count()));
  // Batching-aware admission probes: scale every template option's
  // compute cost to the expected amortized per-request cost, so placement
  // admits against coalesced dispatches. Strict no-op when batching is
  // disabled (apply_batching_probe returns untouched).
  model::apply_batching_probe(templates_, options_.batching);
}

std::size_t ClusterRuntime::class_of(double priority) const noexcept {
  std::size_t index = 0;
  while (index < options_.class_boundaries.size() &&
         priority >= options_.class_boundaries[index])
    ++index;
  return index;
}

ClusterReport ClusterRuntime::run(const runtime::WorkloadTrace& trace) {
  ODN_TRACE_SPAN("cluster", "cluster.run");
  util::Stopwatch run_watch;
  trace.validate();
  if (trace.template_count != templates_.size())
    throw std::invalid_argument(util::fmt(
        "ClusterRuntime: trace indexes {} templates, runtime has {}",
        trace.template_count, templates_.size()));

  dispatcher_.reset();
  const std::size_t cell_count = dispatcher_.cell_count();
  const std::size_t class_count = options_.class_names.size();

  ClusterReport report;
  report.trace_name = trace.name;
  report.seed = options_.seed;
  report.horizon_s = trace.horizon_s;
  report.policy = placement_policy_name(options_.dispatch.policy);
  report.spillover = options_.dispatch.spillover;
  report.classes.resize(class_count);
  for (std::size_t c = 0; c < class_count; ++c)
    report.classes[c].name = options_.class_names[c];
  report.cells.resize(cell_count);
  for (std::size_t i = 0; i < cell_count; ++i) {
    CellReport& cell = report.cells[i];
    const EdgeCell& edge_cell = dispatcher_.cell(i);
    cell.name = edge_cell.name();
    cell.classes.resize(class_count);
    for (std::size_t c = 0; c < class_count; ++c)
      cell.classes[c].name = options_.class_names[c];
    cell.watermarks.memory_capacity_bytes =
        edge_cell.resources().memory_capacity_bytes;
    cell.watermarks.compute_capacity_s =
        edge_cell.resources().compute_capacity_s;
    cell.watermarks.rb_capacity = edge_cell.resources().total_rbs;
  }

  auto observe_cell = [&](std::size_t i) {
    const edge::ResourceLedger& ledger =
        dispatcher_.cell(i).controller().ledger();
    runtime::ResourceWatermarks& w = report.cells[i].watermarks;
    w.peak_memory_bytes =
        std::max(w.peak_memory_bytes, ledger.memory_used_bytes());
    w.peak_compute_s = std::max(w.peak_compute_s, ledger.compute_used_s());
    w.peak_rbs = std::max(w.peak_rbs, ledger.rbs_used());
  };

  // Fault injection: the injector replays the plan at epoch boundaries;
  // recovery re-places displaced jobs through the dispatcher (policy +
  // spillover over the accepting cells).
  fault::FaultInjector injector(options_.faults);
  report.faults.enabled = !options_.faults.empty();

  // Preemption/deadline scheduling (src/sched/). The dispatcher's plain
  // placement is the ladder's rung 1; rungs 2-4 run on this serial loop
  // against one cell at a time, in the order the dispatcher tried them.
  const bool sched_on = options_.sched.enabled;
  report.sched.enabled = sched_on;

  // Epoch-boundary batching (model/batching.h).
  report.batching.enabled = options_.batching.enabled;
  for (const core::DotTask& tmpl : templates_)
    for (const core::PathOption& option : tmpl.options)
      report.batching.probe_scale_min =
          std::min(report.batching.probe_scale_min, option.compute_scale);

  // SLO burn-rate alerting (obs/alerts.h) over the per-class counts of
  // every cell. The engine only sees integer counts from this serial loop,
  // so its record stream is byte-identical for any ODN_THREADS.
  report.alerts.enabled = options_.alerts.enabled;
  std::unique_ptr<obs::BurnRateAlertEngine> alert_engine;
  if (options_.alerts.enabled)
    alert_engine = std::make_unique<obs::BurnRateAlertEngine>(
        options_.alerts, options_.class_names);

  // Flash-crowd migration needs a sibling to move to.
  const bool migration_on = options_.migrate_on_slo && cell_count > 1;

  // Flight-recorder hook: every record site sits on this serial event
  // loop, so the event stream is identical for any ODN_THREADS. One
  // relaxed load + branch when the recorder is disabled. `cell` is -1 for
  // events that belong to no cell (arrivals, retries, final rejections,
  // epoch seals, alerts).
  auto flight = [&](double now, obs::FlightEventKind kind,
                    std::uint64_t task, std::size_t cell,
                    std::uint64_t count = 0, double value = 0.0,
                    const char* detail = "") {
    if (!obs::flight_enabled()) return;
    obs::FlightEvent event;
    event.time_s = now;
    event.kind = kind;
    event.task = task;
    event.cell = cell == kNoCell ? -1 : static_cast<std::int64_t>(cell);
    event.count = count;
    event.value = value;
    event.detail = detail;
    obs::flight_record(event);
  };

  // Materialize jobs and seed the calendar. Trace events are pushed in
  // trace order, epoch events afterwards: the sequence counter makes
  // same-instant ordering deterministic (churn first, then measurement).
  std::vector<Job> jobs;
  std::unordered_map<std::uint64_t, std::size_t> job_by_trace_id;
  std::priority_queue<LoopEvent, std::vector<LoopEvent>,
                      std::greater<LoopEvent>>
      calendar;
  std::uint64_t sequence = 0;

  const auto arrivals = static_cast<std::size_t>(std::count_if(
      trace.events.begin(), trace.events.end(),
      [](const runtime::WorkloadEvent& event) {
        return event.kind == runtime::WorkloadEventKind::kArrival;
      }));
  jobs.reserve(arrivals);
  job_by_trace_id.reserve(arrivals);
  for (const runtime::WorkloadEvent& event : trace.events) {
    if (event.kind == runtime::WorkloadEventKind::kArrival) {
      Job job;
      job.trace_id = event.job_id;
      job.template_index = event.template_index;
      const core::DotTask& tmpl = templates_[event.template_index];
      // QoS annotations only take effect under scheduling; otherwise the
      // job mirrors its template exactly (pre-sched byte identity).
      const bool use_qos = sched_on && event.has_qos;
      job.priority = use_qos ? event.priority : tmpl.spec.priority;
      job.history.arrival_s = event.time_s;
      job.history.deadline_s =
          use_qos ? event.deadline_s : options_.sched.default_deadline_s;
      job.class_index = class_of(job.priority);
      job.name = util::fmt("job-{}/{}", event.job_id, tmpl.spec.name);
      job_by_trace_id.emplace(event.job_id, jobs.size());
      calendar.push(LoopEvent{event.time_s, sequence++,
                              LoopEventKind::kArrival, jobs.size()});
      jobs.push_back(std::move(job));
    } else {
      calendar.push(LoopEvent{event.time_s, sequence++,
                              LoopEventKind::kDeparture,
                              job_by_trace_id.at(event.job_id)});
    }
  }
  std::size_t epoch_count = 0;
  if (options_.epoch_s > 0.0) {
    for (double t = options_.epoch_s; t <= trace.horizon_s + 1e-9;
         t += options_.epoch_s)
      calendar.push(LoopEvent{std::min(t, trace.horizon_s), sequence++,
                              LoopEventKind::kEpoch, epoch_count++});
  }

  // Each cell's active jobs, in job order. serve/unserve are the only
  // places a job gains or loses its cell, so the lists never drift from
  // Job::cell and per-cell work costs O(active), not O(trace).
  std::vector<std::vector<std::size_t>> served(cell_count);
  auto serve = [&](std::size_t j, std::size_t cell) {
    std::vector<std::size_t>& on = served[cell];
    on.insert(std::lower_bound(on.begin(), on.end(), j), j);
    jobs[j].state = Job::State::kActive;
    jobs[j].cell = cell;
  };
  auto unserve = [&](std::size_t j) {
    std::vector<std::size_t>& on = served[jobs[j].cell];
    on.erase(std::lower_bound(on.begin(), on.end(), j));
    jobs[j].cell = kNoCell;
  };

  auto ledger_of = [&](const Job& job) -> RouteLedger {
    switch (job.route) {
      case Route::kFaultReadmission: {
        fault::FaultStats& f = report.faults;
        return {f.displaced_replaced, f.displaced_readmitted,
                f.readmission_retries, f.displaced_rejected,
                f.displaced_departed, f.displaced_pending_at_end,
                "fault", "fault.readmit", "fault", "fault_exhausted"};
      }
      case Route::kSchedReadmission: {
        sched::SchedStats& s = report.sched;
        return {s.preempted_readmitted, s.preempted_readmitted,
                s.readmission_retries, s.preempted_rejected,
                s.preempted_departed, s.preempted_pending_at_end,
                "sched", "sched.readmit", "sched", "sched_exhausted"};
      }
      case Route::kAdmission:
        break;
    }
    runtime::ClassStats& c = report.classes[job.class_index];
    return {c.admitted_first_try, c.admitted_after_retry,
            c.retries_scheduled, c.rejected_final,
            c.departed_before_admission, c.pending_at_end,
            "cluster", "cluster.attempt", "", "exhausted"};
  };

  // No-orphaned-resources conservation: after every ladder application and
  // at each epoch boundary, every cell's ledger and deployed blocks must
  // re-derive exactly from the plans it currently serves
  // (sched/conservation.h). A violation is an internal invariant break.
  // The book borrows the job names and is reused across checks.
  std::vector<sched::ServedTask> book;
  auto check_conservation = [&](const char* where) {
    if (!sched_on) return;
    for (std::size_t i = 0; i < cell_count; ++i) {
      book.clear();
      for (const std::size_t j : served[i])
        book.push_back(sched::ServedTask{jobs[j].name, &jobs[j].plan});
      if (const auto violation = sched::find_orphaned_resources(
              dispatcher_.cell(i).controller(), book, catalog_))
        throw std::logic_error(
            util::fmt("ClusterRuntime: orphaned resources on cell {} {}: {}",
                      i, where, *violation));
    }
  };

  // Applies ladder victim outcomes to the books: re-shaped plans replace
  // the served ones (same cell), preempted jobs lose their cell and
  // re-enter placement through the sched readmission route (first retry
  // after one backoff interval).
  auto apply_victims = [&](const std::vector<sched::VictimOutcome>& victims,
                           double now) {
    for (const sched::VictimOutcome& outcome : victims) {
      const std::size_t victim_index = job_by_trace_id.at(outcome.id);
      Job& victim = jobs[victim_index];
      switch (outcome.fate) {
        case sched::VictimOutcome::Fate::kDowngraded:
          flight(now, obs::FlightEventKind::kDowngrade, victim.trace_id,
                 victim.cell, 0, outcome.plan.accuracy, "ladder");
          victim.plan = outcome.plan;
          victim.admitted_task = outcome.task;
          victim.sched_downgraded = true;
          victim.history.ever_downgraded = true;
          ++report.sched.downgrades;
          break;
        case sched::VictimOutcome::Fate::kRestored:
          // Rolled back — same spec, freshly solved plan, same cell.
          victim.plan = outcome.plan;
          victim.admitted_task = outcome.task;
          break;
        case sched::VictimOutcome::Fate::kPreempted: {
          flight(now, obs::FlightEventKind::kPreemption, victim.trace_id,
                 victim.cell, 0, 0.0, "ladder");
          unserve(victim_index);
          victim.state = Job::State::kPending;
          victim.route = Route::kSchedReadmission;
          victim.attempts = 0;
          victim.history.ever_preempted = true;
          ++report.sched.preemptions;
          const double retry_at = now + options_.retry.retry_delay_s(1);
          if (retry_at > trace.horizon_s) break;  // preempted-pending
          ++report.sched.readmission_retries;
          calendar.push(LoopEvent{retry_at, sequence++,
                                  LoopEventKind::kRetry, victim_index});
          break;
        }
      }
    }
  };

  // Ladder fallback for an arrival every accepting cell rejected: walk the
  // cells in the order the dispatcher tried them (preferred first, then
  // accepting siblings when spillover is on) and let rungs 2-4 downgrade
  // or evict lower-priority jobs served there. Cells serving nothing are
  // skipped: the plain rejection already was their whole ladder. The
  // candidates borrow the jobs' served specs; nothing in the ladder
  // touches the job table, so they stay valid until it returns.
  auto run_ladder = [&](const core::DotTask& task, std::size_t preferred,
                        double now) {
    std::vector<std::size_t> order{preferred};
    if (options_.dispatch.spillover)
      for (std::size_t i = 0; i < cell_count; ++i)
        if (i != preferred && dispatcher_.accepting(i)) order.push_back(i);
    for (const std::size_t cell_index : order) {
      std::vector<sched::SchedCandidate> candidates;
      candidates.reserve(served[cell_index].size());
      for (const std::size_t j : served[cell_index])
        candidates.push_back(sched::SchedCandidate{
            jobs[j].trace_id, jobs[j].priority, jobs[j].admitted_task,
            jobs[j].sched_downgraded});
      if (candidates.empty()) continue;
      DispatcherSchedHost host(dispatcher_, cell_index, catalog_);
      const sched::LadderOutcome ladder = sched::run_ladder_fallback(
          host, task, candidates, options_.sched);
      report.sched.probes += ladder.probes;
      report.sched.rollbacks += ladder.rollbacks;
      apply_victims(ladder.victims, now);
      observe_cell(cell_index);
      if (ladder.action != sched::SchedAction::kReject)
        return Placement{cell_index, ladder.plan, ladder.action};
      check_conservation("after ladder rejection");
    }
    ++report.sched.ladder_rejected;
    return Placement{};
  };

  // One placement attempt for a pending job. A first admission (and its
  // retries) instantiates the template and, under scheduling, falls back
  // to the ladder; displaced and evicted jobs re-place their served shape
  // plainly — an evicted job must not evict others. A failed attempt
  // backs off or, with attempts exhausted, rejects the job for good; each
  // outcome is accounted to the route's ledger.
  auto attempt = [&](std::size_t job_index, double now) {
    Job& job = jobs[job_index];
    const Route route = job.route;
    const RouteLedger ledger = ledger_of(job);
    const obs::SpanScope span(ledger.span_category, ledger.span_name);
    ++job.attempts;

    core::DotTask task;
    if (route == Route::kAdmission) {
      task = templates_[job.template_index];
      task.spec.name = job.name;
      // Correlation for flight-recorder timelines; like the name, it never
      // enters the solve.
      task.spec.correlation = job.trace_id;
      task.spec.priority = job.priority;
    } else {
      task = job.admitted_task;  // the shape it was serving at
    }
    const bool downgraded = options_.retry.downgrades(job.attempts);
    if (downgraded)
      task = runtime::downgraded_task(std::move(task), options_.retry);

    const AdmissionOutcome outcome = dispatcher_.admit(catalog_, task);
    Placement placed;
    if (outcome.admitted) {
      placed = Placement{outcome.cell, outcome.plan,
                         sched::SchedAction::kAdmit};
      observe_cell(outcome.cell);
    }
    if (route == Route::kAdmission && sched_on &&
        outcome.preferred_cell != kNoCell) {
      ++report.sched.probes;  // the placement is rung 1's one probe
      if (!outcome.admitted)
        placed = run_ladder(task, outcome.preferred_cell, now);
    }

    if (placed.cell != kNoCell) {
      serve(job_index, placed.cell);
      ++(job.attempts == 1 ? ledger.placed_first_try
                           : ledger.placed_after_retry);
      job.route = Route::kAdmission;
      job.plan = std::move(placed.plan);
      job.admitted_task = std::move(task);
      job.history.admit(now, downgraded);
      if (route != Route::kAdmission) {
        flight(now, obs::FlightEventKind::kReadmission, job.trace_id,
               job.cell, job.attempts, job.plan.accuracy,
               downgraded ? "downgraded" : ledger.detail);
        return;
      }
      runtime::ClassStats& stats = report.classes[job.class_index];
      ++stats.admitted;
      if (downgraded) ++stats.admitted_downgraded;
      CellReport& cell = report.cells[job.cell];
      if (job.cell == outcome.preferred_cell)
        ++cell.admitted_preferred;
      else
        ++cell.admitted_spillover;
      flight(now, obs::FlightEventKind::kAdmission, job.trace_id, job.cell,
             job.attempts, job.plan.accuracy,
             downgraded ? "downgraded" : "");
      if (sched_on) {
        switch (placed.action) {
          case sched::SchedAction::kAdmit:
            ++report.sched.admitted_plain;
            break;
          case sched::SchedAction::kDowngrade:
            ++report.sched.admitted_by_downgrade;
            break;
          case sched::SchedAction::kPreempt:
            ++report.sched.admitted_by_preemption;
            break;
          case sched::SchedAction::kReject:
            break;
        }
        check_conservation("after admission");
      }
      return;
    }

    if (job.attempts >= options_.retry.max_attempts) {
      job.state = Job::State::kRejected;
      ++ledger.rejected;
      flight(now, obs::FlightEventKind::kRejection, job.trace_id, kNoCell,
             job.attempts, 0.0, ledger.exhausted_detail);
      return;
    }
    const double retry_at = now + options_.retry.retry_delay_s(job.attempts);
    // The horizon ends before the backoff expires: the job never gets
    // another shot. It stays pending; counted at the end.
    if (retry_at > trace.horizon_s) return;
    ++ledger.retries;
    flight(now, obs::FlightEventKind::kRetryScheduled, job.trace_id, kNoCell,
           job.attempts, retry_at, ledger.detail);
    calendar.push(
        LoopEvent{retry_at, sequence++, LoopEventKind::kRetry, job_index});
  };

  // Active jobs of one cell in displacement order: highest priority first
  // (they re-place against the surviving capacity first), ties by trace id.
  // job.priority equals the template priority whenever scheduling (or QoS)
  // is off, so the order is unchanged on pre-sched configurations.
  auto displacement_order = [&](std::size_t cell) {
    std::vector<std::size_t> order = served[cell];
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (jobs[a].priority != jobs[b].priority)
        return jobs[a].priority > jobs[b].priority;
      return jobs[a].trace_id < jobs[b].trace_id;
    });
    return order;
  };

  // Displaces every job in `order` and re-places each at once; failures
  // back off through the fault readmission route. A fault displacement
  // supersedes a pending ladder preemption.
  auto displace_and_readmit = [&](const std::vector<std::size_t>& order,
                                  double now) {
    for (const std::size_t j : order) {
      Job& job = jobs[j];
      flight(now, obs::FlightEventKind::kDisplacement, job.trace_id,
             job.cell);
      unserve(j);
      job.state = Job::State::kPending;
      job.route = Route::kFaultReadmission;
      job.attempts = 0;
      job.history.ever_preempted = true;
      ++report.faults.displaced;
      if (sched_on) ++report.sched.fault_displacements;
    }
    for (const std::size_t j : order) attempt(j, now);
  };

  // Fault application at the epoch boundary. Every due event applies as
  // one batch: the injector state after the whole batch gates admission,
  // so recovery actions see it (a crash and a recovery on one boundary
  // readmit the displaced jobs at once) — and a recovered cell may still
  // be budget-exhausted, and vice versa.
  auto sync_gate = [&](std::size_t cell) {
    dispatcher_.set_accepting(cell, injector.state(cell).accepting());
  };
  auto apply_faults = [&](double now) {
    if (injector.idle()) return;
    const std::vector<fault::FaultEvent> events = injector.advance(now);
    if (events.empty()) return;
    ODN_TRACE_SPAN("fault", "fault.apply");
    for (const fault::FaultEvent& event : events) sync_gate(event.cell);
    for (const fault::FaultEvent& event : events) {
      report.faults.record_event(event.kind);
      flight(now, obs::FlightEventKind::kFault, obs::kNoFlightTask,
             event.cell, 0, event.magnitude,
             fault::fault_event_kind_name(event.kind));
      switch (event.kind) {
        case fault::FaultEventKind::kCellCrash: {
          // The cell's controller state is lost; every task it served is
          // displaced and re-placed.
          const std::vector<std::size_t> order =
              displacement_order(event.cell);
          dispatcher_.crash_cell(event.cell);
          sync_gate(event.cell);
          observe_cell(event.cell);
          displace_and_readmit(order, now);
          break;
        }
        case fault::FaultEventKind::kRadioDegrade: {
          // Admissions on this cell were solved against the nominal
          // radio; release them and re-run admission under the derated
          // model (they may land back on the same cell at a lower rate,
          // or spill to a sibling).
          dispatcher_.cell(event.cell).set_radio_derate(event.magnitude);
          const std::vector<std::size_t> order =
              displacement_order(event.cell);
          for (const std::size_t j : order) {
            if (dispatcher_.release(jobs[j].name) == kNoCell)
              throw std::logic_error(util::fmt(
                  "ClusterRuntime: displaced job '{}' unknown to dispatcher",
                  jobs[j].name));
          }
          observe_cell(event.cell);
          displace_and_readmit(order, now);
          break;
        }
        case fault::FaultEventKind::kRadioRestore:
          dispatcher_.cell(event.cell).set_radio_derate(1.0);
          break;
        case fault::FaultEventKind::kCellRecover:
        case fault::FaultEventKind::kLatencyInflate:
        case fault::FaultEventKind::kLatencyRestore:
        case fault::FaultEventKind::kBudgetExhaust:
        case fault::FaultEventKind::kBudgetRestore:
          // State-only transitions: the injector's per-cell state gates
          // admission (sync_gate) and scales measurement (latency_factor).
          break;
      }
    }
  };

  // One cell's measured latencies, reused across cells and epochs.
  std::vector<double> cell_latencies;
  // Epoch boundary: measure every cell's live deployment with its own
  // emulator stream, then run the migration pass over the cells that
  // showed violations (fixed cell order — deterministic).
  auto measure_epoch = [&](double now, std::size_t epoch_index) {
    ODN_TRACE_SPAN("cluster", "cluster.epoch");
    util::Stopwatch epoch_watch;
    ClusterEpochSnapshot snapshot;
    snapshot.time_s = now;
    snapshot.cells.resize(cell_count);
    std::vector<std::size_t> violations_by_cell(cell_count, 0);
    // Per-class counts for this epoch alone — the alert engine's input
    // (the ClassStats totals accumulate across the whole run).
    std::vector<std::uint64_t> epoch_class_samples(class_count, 0);
    std::vector<std::uint64_t> epoch_class_violations(class_count, 0);

    for (std::size_t i = 0; i < cell_count; ++i) {
      const EdgeCell& edge_cell = dispatcher_.cell(i);
      ClusterEpochSnapshot::CellSample& sample = snapshot.cells[i];
      sample.deployed_blocks = edge_cell.controller().deployed_blocks().size();
      snapshot.active_tasks += served[i].size();
      if (served[i].empty()) continue;

      core::DeploymentPlan live;
      live.tasks.reserve(served[i].size());
      for (const std::size_t j : served[i]) live.tasks.push_back(jobs[j].plan);
      sim::EmulatorOptions emu_options;
      emu_options.duration_s = options_.emulation_window_s;
      emu_options.seed =
          epoch_seed(options_.seed, epoch_index * cell_count + i);
      emu_options.poisson_arrivals = options_.poisson_emulation;
      emu_options.batching = options_.batching;
      emu_options.flight_time_base_s = now;
      emu_options.flight_cell = static_cast<std::int64_t>(i);
      // Each cell measures with its own effective radio (derated while a
      // radio fault is active; identical to the shared model otherwise).
      sim::EdgeEmulator emulator(std::move(live), edge_cell.radio(),
                                 edge_cell.resources().compute_capacity_s,
                                 emu_options);
      const sim::EmulationReport measured = emulator.run();
      report.batching.dispatches += measured.batch_dispatches;
      report.batching.coalesced_requests += measured.coalesced_requests;
      report.batching.max_batch =
          std::max(report.batching.max_batch, measured.max_batch_observed);

      // Latency inflation scales measured samples at accounting time;
      // multiplying by a factor of 1 is exact.
      const double latency_factor =
          injector.idle() ? 1.0 : injector.state(i).latency_factor;
      CellReport& cell = report.cells[i];
      cell_latencies.clear();
      // Every served plan is admitted at a positive rate, so the emulator
      // emits exactly one trace per plan, in plan order: trace k is
      // served[i][k]'s.
      if (measured.tasks.size() != served[i].size())
        throw std::logic_error(util::fmt(
            "ClusterRuntime: cell {} measured {} tasks but serves {}", i,
            measured.tasks.size(), served[i].size()));
      for (std::size_t k = 0; k < measured.tasks.size(); ++k) {
        const sim::TaskTrace& task_trace = measured.tasks[k];
        const Job& job = jobs[served[i][k]];
        if (task_trace.correlation != job.trace_id)
          throw std::logic_error(util::fmt(
              "ClusterRuntime: cell {} trace {} belongs to job {}, not {}",
              i, k, task_trace.correlation, job.trace_id));
        const std::size_t class_index = job.class_index;
        runtime::ClassStats& stats = cell.classes[class_index];
        std::size_t violations = 0;
        for (const sim::LatencySample& latency : task_trace.samples) {
          const double measured_s = latency.latency_s * latency_factor;
          stats.latency_samples_s.push_back(measured_s);
          cell_latencies.push_back(measured_s);
          if (measured_s > task_trace.latency_bound_s) ++violations;
        }
        stats.slo_violations += violations;
        violations_by_cell[i] += violations;
        snapshot.slo_violations += violations;
        snapshot.samples += task_trace.samples.size();
        epoch_class_samples[class_index] += task_trace.samples.size();
        epoch_class_violations[class_index] += violations;
        if (violations > 0)
          flight(now, obs::FlightEventKind::kSloViolation,
                 task_trace.correlation, i, violations,
                 task_trace.latency_bound_s);
      }
      if (!cell_latencies.empty())
        sample.p95_latency_s =
            util::percentile_in_place(cell_latencies, 95.0);
      sample.gpu_busy_fraction = measured.gpu_busy_fraction;
      if (violations_by_cell[i] > 0) ++snapshot.cells_violating;
    }

    // Per-fault-class SLO impact: a violating cell's violations count
    // toward every fault class locally active on it; a nominal cell under
    // pressure while a sibling is down counts as crash impact, and only
    // fault-free epochs/cells land in the clear bucket. (A down cell
    // serves nothing, so it never violates.)
    if (!injector.idle() && snapshot.slo_violations > 0) {
      bool any_down = false;
      for (std::size_t i = 0; i < cell_count; ++i)
        if (!injector.state(i).up) any_down = true;
      for (std::size_t i = 0; i < cell_count; ++i) {
        const std::size_t violations = violations_by_cell[i];
        if (violations == 0) continue;
        const fault::CellFaultState& cell_state = injector.state(i);
        bool attributed = false;
        if (cell_state.bandwidth_factor != 1.0) {
          report.faults.violations_during_radio += violations;
          attributed = true;
        }
        if (cell_state.latency_factor != 1.0) {
          report.faults.violations_during_latency += violations;
          attributed = true;
        }
        if (cell_state.budget_exhausted) {
          report.faults.violations_during_budget += violations;
          attributed = true;
        }
        if (!attributed) {
          if (any_down)
            report.faults.violations_during_crash += violations;
          else
            report.faults.violations_clear += violations;
        }
      }
    }

    // Flash-crowd migration: cells under SLO pressure shed their
    // lowest-priority jobs to the sibling with the most headroom that
    // accepts the probe.
    if (migration_on) {
      for (std::size_t source = 0; source < cell_count; ++source) {
        if (violations_by_cell[source] == 0) continue;

        // Candidates: active jobs at `source`, lowest effective priority
        // first (ties: lower trace id — deterministic).
        std::vector<std::size_t> candidates = served[source];
        std::sort(candidates.begin(), candidates.end(),
                  [&](std::size_t a, std::size_t b) {
                    if (jobs[a].priority != jobs[b].priority)
                      return jobs[a].priority < jobs[b].priority;
                    return jobs[a].trace_id < jobs[b].trace_id;
                  });
        if (candidates.size() > options_.migration_batch)
          candidates.resize(options_.migration_batch);

        for (const std::size_t job_index : candidates) {
          Job& job = jobs[job_index];
          ++report.migration.attempted;

          // Target order: highest normalized headroom first, index
          // breaking ties (strict > comparison keeps it deterministic).
          std::vector<std::size_t> targets;
          for (std::size_t i = 0; i < cell_count; ++i)
            if (i != source) targets.push_back(i);
          std::sort(targets.begin(), targets.end(),
                    [&](std::size_t a, std::size_t b) {
                      const double ha =
                          dispatcher_.cell(a).normalized_headroom();
                      const double hb =
                          dispatcher_.cell(b).normalized_headroom();
                      if (ha != hb) return ha > hb;
                      return a < b;
                    });

          bool moved = false;
          for (const std::size_t target : targets) {
            core::TaskPlan migrated_plan;
            if (dispatcher_.migrate(catalog_, job.admitted_task, job.name,
                                    target, &migrated_plan)) {
              flight(now, obs::FlightEventKind::kMigration, job.trace_id,
                     target, static_cast<std::uint64_t>(source));
              unserve(job_index);
              serve(job_index, target);
              job.plan = migrated_plan;
              ++report.migration.migrated;
              ++report.cells[source].migrations_out;
              ++report.cells[target].migrations_in;
              ++snapshot.migrations;
              observe_cell(source);
              observe_cell(target);
              moved = true;
              break;
            }
          }
          if (!moved) ++report.migration.no_target;
        }
      }
    }

    flight(now, obs::FlightEventKind::kEpochSeal, obs::kNoFlightTask, kNoCell,
           snapshot.samples, static_cast<double>(snapshot.slo_violations));

    // Burn-rate evaluation at every boundary, including task-free epochs
    // (empty epochs slide the windows). One null check when disabled.
    const std::size_t emitted = obs::maybe_observe_epoch(
        alert_engine.get(), epoch_index + 1, now, epoch_class_samples,
        epoch_class_violations);
    if (emitted > 0 && obs::flight_enabled()) {
      const std::vector<obs::AlertRecord>& records =
          alert_engine->log().records;
      for (std::size_t r = records.size() - emitted; r < records.size(); ++r)
        flight(now, obs::FlightEventKind::kAlert, obs::kNoFlightTask, kNoCell,
               records[r].epoch, records[r].fast_burn,
               records[r].firing ? "fire" : "resolve");
    }

    snapshot.measure_wall_s = epoch_watch.elapsed_seconds();
    report.timeline.push_back(std::move(snapshot));
    ++report.epochs;
  };

  // The sched epoch snapshot's job walk. A departed or rejected job never
  // changes bucket, so the first epoch that finds it settled classifies it
  // once into `settled`; each epoch then walks only the arrived, unsettled
  // jobs, and counts the jobs yet to arrive as pending.
  sched::SchedEpochBuckets settled;
  std::vector<std::size_t> unsettled;  // arrived jobs, in arrival order
  std::size_t arrived = 0;

  while (!calendar.empty()) {
    const LoopEvent event = calendar.top();
    calendar.pop();
    ++report.events_processed;

    switch (event.kind) {
      case LoopEventKind::kArrival: {
        const Job& job = jobs[event.job];
        ++report.classes[job.class_index].arrivals;
        ++arrived;
        if (sched_on) unsettled.push_back(event.job);
        // The arrival's value carries the admit-by deadline the classifier
        // judges (zero when scheduling is off — no deadline semantics).
        flight(event.time, obs::FlightEventKind::kArrival, job.trace_id,
               kNoCell, job.template_index,
               sched_on ? job.history.deadline_s : 0.0);
        attempt(event.job, event.time);
        break;
      }
      case LoopEventKind::kRetry:
        // A departure or the final rejection may have landed during the
        // backoff; only still-pending jobs retry.
        if (jobs[event.job].state == Job::State::kPending)
          attempt(event.job, event.time);
        break;
      case LoopEventKind::kDeparture: {
        Job& job = jobs[event.job];
        flight(event.time, obs::FlightEventKind::kDeparture, job.trace_id,
               job.cell, 0, 0.0,
               job.state == Job::State::kActive    ? "serving"
               : job.state == Job::State::kPending ? "pending"
                                                   : "after_rejection");
        if (job.state == Job::State::kActive) {
          const std::size_t cell = dispatcher_.release(job.name);
          if (cell == kNoCell)
            throw std::logic_error(util::fmt(
                "ClusterRuntime: active job '{}' unknown to dispatcher",
                job.name));
          ++report.cells[cell].classes[job.class_index].departures;
          observe_cell(cell);
          unserve(event.job);
          job.history.departed_serving = true;
        } else if (job.state == Job::State::kPending) {
          ++ledger_of(job).departed;
        }
        job.state = Job::State::kDeparted;
        break;
      }
      case LoopEventKind::kEpoch:
        apply_faults(event.time);
        measure_epoch(event.time, event.job);
        if (sched_on) {
          // Serving jobs are bucketed by their current trajectory; a job
          // never admitted and not yet resolved counts as pending (this
          // includes jobs whose arrival is still ahead).
          std::size_t kept = 0;
          for (const std::size_t j : unsettled) {
            const Job& job = jobs[j];
            if (job.state == Job::State::kDeparted ||
                job.state == Job::State::kRejected)
              count_bucket(sched::classify(job.history, false), settled);
            else
              unsettled[kept++] = j;
          }
          unsettled.resize(kept);
          sched::SchedEpochBuckets buckets = settled;
          buckets.time_s = event.time;
          buckets.pending = jobs.size() - arrived;
          for (const std::size_t j : unsettled) {
            const Job& job = jobs[j];
            const bool serving = job.state == Job::State::kActive;
            if (serving) ++buckets.serving;
            if (!job.history.first_admitted_s &&
                job.state == Job::State::kPending)
              ++buckets.pending;
            else
              count_bucket(sched::classify(job.history, serving), buckets);
          }
          report.sched.timeline.push_back(buckets);
          check_conservation("at epoch boundary");
        }
        break;
    }
  }

  for (const Job& job : jobs) {
    if (sched_on)
      count_bucket(
          sched::classify(job.history, job.state == Job::State::kActive),
          report.sched);
    if (job.state == Job::State::kPending) ++ledger_of(job).pending_at_end;
  }
  for (std::size_t i = 0; i < cell_count; ++i) {
    report.active_at_end += served[i].size();
    report.cells[i].active_at_end = served[i].size();
    report.cells[i].deployed_blocks_at_end =
        dispatcher_.cell(i).controller().deployed_blocks().size();
  }
  check_conservation("at end of run");
  if (alert_engine) report.alerts = alert_engine->log();
  // The finished report is the only ledger: the engine's metric series are
  // published from it, once (DESIGN.md §6).
  export_metrics(report, migration_on, obs::MetricsRegistry::global());
  report.run_wall_s = run_watch.elapsed_seconds();

  util::log_info("cluster",
                 "cluster run '{}': {} cells, policy {}, {} events, "
                 "{} epochs, {}/{} admitted, {} migrations, {} SLO "
                 "violations, {} active at end",
                 trace.name, cell_count, report.policy,
                 report.events_processed, report.epochs,
                 report.total_admitted(), report.total_arrivals(),
                 report.migration.migrated, report.total_slo_violations(),
                 report.active_at_end);
  return report;
}

}  // namespace odn::cluster
