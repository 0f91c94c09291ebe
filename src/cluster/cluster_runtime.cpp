#include "cluster/cluster_runtime.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
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

// What the calendar holds; trace events are pulled from the trace as they
// play (see EngineRun). At one instant an epoch comes before a retry.
enum class LoopEventKind : std::uint8_t { kEpoch, kRetry };

struct LoopEvent {
  double time = 0.0;
  LoopEventKind kind = LoopEventKind::kEpoch;
  std::uint64_t sequence = 0;  // epoch index, or retries in schedule order
  std::uint64_t job = 0;       // the retrying job's trace id

  bool operator>(const LoopEvent& other) const noexcept {
    if (time != other.time) return time > other.time;
    if (kind != other.kind) return kind > other.kind;
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

// A live job's book: it exists from the job's arrival until the job
// settles (departs or is finally rejected).
struct Job {
  std::uint64_t trace_id = 0;
  // Trace index of the arrival. Served lists keep arrival order, which job
  // ids need not follow.
  std::size_t arrival = 0;
  std::size_t template_index = 0;
  std::size_t class_index = 0;
  std::string name;
  std::size_t attempts = 0;
  // Effective priority. Without scheduling (or QoS annotations) it is the
  // template's, so every pre-sched code path reads identical values.
  double priority = 0.0;
  Route route = Route::kAdmission;
  // Re-shaped by the ladder's downgrade rung (scheduling only).
  bool sched_downgraded = false;
  // What the deadline bucket needs beyond "serving now"; its deadline
  // mirrors the configured default without scheduling or QoS annotations.
  sched::DeadlineHistory history;
  std::size_t cell = kNoCell;  // owning cell while serving, set by serve()
  bool active = false;         // placed and serving; else pending
  core::TaskPlan plan;          // valid while active
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

// Flight-recorder hook: every record site sits on the serial event loop,
// so the event stream is identical for any ODN_THREADS. One relaxed load +
// branch when the recorder is disabled. `cell` is kNoCell (-1 in the
// record) for events that belong to no cell (arrivals, retries, final
// rejections, epoch seals, alerts).
void flight(double now, obs::FlightEventKind kind, std::uint64_t task,
            std::size_t cell, std::uint64_t count = 0, double value = 0.0,
            const char* detail = "") {
  if (!obs::flight_enabled()) return;
  obs::flight_record(obs::FlightEvent{
      now, kind, task, cell == kNoCell ? -1 : static_cast<std::int64_t>(cell),
      count, value, detail});
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

// One replay of a trace: the run's state, and each stage of the event loop
// as a method. The time-ordered trace is pulled as it plays; the calendar
// holds the next epoch boundary and the retry backoffs. At one instant the
// trace plays first, then the epoch, then retries in the order they were
// scheduled (DESIGN.md §4d). Memory follows the live jobs, not the trace.
class EngineRun {
 public:
  EngineRun(const ClusterRuntime& runtime, const edge::DnnCatalog& catalog,
            const std::vector<core::DotTask>& templates,
            const ClusterOptions& options, ClusterDispatcher& dispatcher,
            const runtime::WorkloadTrace& trace)
      : runtime_(runtime),
        catalog_(catalog),
        templates_(templates),
        options_(options),
        dispatcher_(dispatcher),
        trace_(trace) {
    dispatcher_.reset();
    report_.trace_name = trace_.name;
    report_.seed = options_.seed;
    report_.horizon_s = trace_.horizon_s;
    report_.policy = placement_policy_name(options_.dispatch.policy);
    report_.spillover = options_.dispatch.spillover;
    report_.classes.resize(class_count_);
    for (std::size_t c = 0; c < class_count_; ++c)
      report_.classes[c].name = options_.class_names[c];
    report_.cells.resize(cell_count_);
    for (std::size_t i = 0; i < cell_count_; ++i) {
      CellReport& cell = report_.cells[i];
      const edge::EdgeResources& resources = dispatcher_.cell(i).resources();
      cell.name = dispatcher_.cell(i).name();
      cell.classes = report_.classes;
      cell.watermarks.memory_capacity_bytes = resources.memory_capacity_bytes;
      cell.watermarks.compute_capacity_s = resources.compute_capacity_s;
      cell.watermarks.rb_capacity = resources.total_rbs;
    }
    report_.faults.enabled = !options_.faults.empty();
    report_.sched.enabled = sched_on_;
    // Epoch-boundary batching (model/batching.h).
    report_.batching.enabled = options_.batching.enabled;
    for (const core::DotTask& tmpl : templates_)
      for (const core::PathOption& option : tmpl.options)
        report_.batching.probe_scale_min =
            std::min(report_.batching.probe_scale_min, option.compute_scale);
    report_.alerts.enabled = options_.alerts.enabled;
    if (options_.alerts.enabled)
      alert_engine_ = std::make_unique<obs::BurnRateAlertEngine>(
          options_.alerts, options_.class_names);
    schedule_epoch(0);
  }

  ClusterReport play() {
    const std::vector<runtime::WorkloadEvent>& events = trace_.events;
    std::size_t next = 0;
    while (next < events.size() || !calendar_.empty()) {
      ++report_.events_processed;
      // The next trace event also wins a tie in time.
      if (next < events.size() &&
          (calendar_.empty() || events[next].time_s <= calendar_.top().time)) {
        if (events[next].kind == runtime::WorkloadEventKind::kArrival)
          arrive(events[next], next);
        else
          depart(events[next]);
        ++next;
        continue;
      }
      const LoopEvent event = calendar_.top();
      calendar_.pop();
      if (event.kind == LoopEventKind::kRetry)
        retry(event.job, event.time);
      else
        epoch(event.time, static_cast<std::size_t>(event.sequence));
    }
    return finish();
  }

 private:
  void arrive(const runtime::WorkloadEvent& event, std::size_t index) {
    Job& job = jobs_[event.job_id];
    job.trace_id = event.job_id;
    job.arrival = index;
    job.template_index = event.template_index;
    const core::DotTask& tmpl = templates_[event.template_index];
    // QoS annotations only take effect under scheduling; otherwise the
    // job mirrors its template exactly (pre-sched byte identity).
    const bool use_qos = sched_on_ && event.has_qos;
    job.priority = use_qos ? event.priority : tmpl.spec.priority;
    job.history.arrival_s = event.time_s;
    job.history.deadline_s =
        use_qos ? event.deadline_s : options_.sched.default_deadline_s;
    job.class_index = runtime_.class_of(job.priority);
    job.name = util::fmt("job-{}/{}", event.job_id, tmpl.spec.name);

    ++report_.classes[job.class_index].arrivals;
    // The arrival's value carries the admit-by deadline the classifier
    // judges (zero when scheduling is off — no deadline semantics).
    flight(event.time_s, obs::FlightEventKind::kArrival, job.trace_id,
           kNoCell, job.template_index,
           sched_on_ ? job.history.deadline_s : 0.0);
    attempt(job, event.time_s);
  }

  void depart(const runtime::WorkloadEvent& event) {
    if (rejected_.erase(event.job_id) != 0) {
      flight(event.time_s, obs::FlightEventKind::kDeparture, event.job_id,
             kNoCell, 0, 0.0, "after_rejection");
      return;
    }
    Job& job = jobs_.at(event.job_id);
    flight(event.time_s, obs::FlightEventKind::kDeparture, job.trace_id,
           job.cell, 0, 0.0, job.active ? "serving" : "pending");
    if (job.active) {
      const std::size_t cell = dispatcher_.release(job.name);
      if (cell == kNoCell)
        throw std::logic_error(util::fmt(
            "ClusterRuntime: active job '{}' unknown to dispatcher", job.name));
      ++report_.cells[cell].classes[job.class_index].departures;
      observe_cell(cell);
      unserve(job);
      job.history.departed_serving = true;
    } else {
      ++ledger_of(job).departed;
    }
    settle(job);
  }

  void retry(std::uint64_t trace_id, double now) {
    // Only a live, pending job retries: it may have left during the backoff.
    const auto found = jobs_.find(trace_id);
    if (found != jobs_.end() && !found->second.active)
      attempt(found->second, now);
  }

  void epoch(double now, std::size_t epoch_index) {
    apply_faults(now);
    measure_epoch(now, epoch_index);
    if (sched_on_) {
      sched_snapshot(now);
      check_conservation("at epoch boundary");
    }
    epoch_clock_ += options_.epoch_s;
    schedule_epoch(epoch_index + 1);
  }

  ClusterReport finish() {
    for (const auto& [id, job] : jobs_) {
      if (sched_on_)
        count_bucket(sched::classify(job.history, job.active), report_.sched);
      if (!job.active) ++ledger_of(job).pending_at_end;
    }
    for (std::size_t i = 0; i < cell_count_; ++i) {
      report_.active_at_end += served_[i].size();
      report_.cells[i].active_at_end = served_[i].size();
      report_.cells[i].deployed_blocks_at_end =
          dispatcher_.cell(i).controller().deployed_blocks().size();
    }
    check_conservation("at end of run");
    if (alert_engine_) report_.alerts = alert_engine_->log();
    // The finished report is the only ledger: the engine's metric series
    // are published from it, once (DESIGN.md §6).
    export_metrics(report_, migration_on_, obs::MetricsRegistry::global());
    report_.run_wall_s = run_watch_.elapsed_seconds();

    util::log_info("cluster",
                   "cluster run '{}': {} cells, policy {}, {} events, "
                   "{} epochs, {}/{} admitted, {} migrations, {} SLO "
                   "violations, {} active at end",
                   trace_.name, cell_count_, report_.policy,
                   report_.events_processed, report_.epochs,
                   report_.total_admitted(), report_.total_arrivals(),
                   report_.migration.migrated, report_.total_slo_violations(),
                   report_.active_at_end);
    return std::move(report_);
  }

  // serve/unserve are the only places a job gains or loses its cell, so
  // the served lists never drift from Job::cell.
  void serve(Job& job, std::size_t cell) {
    std::vector<Job*>& on = served_[cell];
    on.insert(std::partition_point(on.begin(), on.end(), [&](const Job* j) {
      return j->arrival < job.arrival;
    }), &job);
    job.active = true;
    job.cell = cell;
  }
  void unserve(Job& job) {
    std::vector<Job*>& on = served_[job.cell];
    on.erase(std::find(on.begin(), on.end(), &job));
    job.active = false;
    job.cell = kNoCell;
  }

  // A job settles once, when it departs or is finally rejected: its
  // deadline bucket, fixed from then on, joins the settled tally (which
  // later epoch snapshots start from) and the final one; its book is freed.
  void settle(const Job& job) {
    if (sched_on_) {
      const sched::DeadlineBucket bucket = sched::classify(job.history, false);
      count_bucket(bucket, settled_);
      count_bucket(bucket, report_.sched);
    }
    jobs_.erase(job.trace_id);
  }

  RouteLedger ledger_of(const Job& job) {
    switch (job.route) {
      case Route::kFaultReadmission: {
        fault::FaultStats& f = report_.faults;
        return {f.displaced_replaced, f.displaced_readmitted,
                f.readmission_retries, f.displaced_rejected,
                f.displaced_departed, f.displaced_pending_at_end,
                "fault", "fault.readmit", "fault", "fault_exhausted"};
      }
      case Route::kSchedReadmission: {
        sched::SchedStats& s = report_.sched;
        return {s.preempted_readmitted, s.preempted_readmitted,
                s.readmission_retries, s.preempted_rejected,
                s.preempted_departed, s.preempted_pending_at_end,
                "sched", "sched.readmit", "sched", "sched_exhausted"};
      }
      case Route::kAdmission:
        break;
    }
    runtime::ClassStats& c = report_.classes[job.class_index];
    return {c.admitted_first_try, c.admitted_after_retry,
            c.retries_scheduled, c.rejected_final,
            c.departed_before_admission, c.pending_at_end,
            "cluster", "cluster.attempt", "", "exhausted"};
  }

  void schedule_retry(std::uint64_t trace_id, double at) {
    calendar_.push(
        LoopEvent{at, LoopEventKind::kRetry, retries_scheduled_++, trace_id});
  }
  // Epoch k closes at the k-th accumulated epoch_s, the last one clamped
  // to the horizon.
  void schedule_epoch(std::size_t epoch_index) {
    if (options_.epoch_s > 0.0 && epoch_clock_ <= trace_.horizon_s + 1e-9)
      calendar_.push(LoopEvent{std::min(epoch_clock_, trace_.horizon_s),
                               LoopEventKind::kEpoch, epoch_index});
  }

  void observe_cell(std::size_t i) {
    const edge::ResourceLedger& ledger =
        dispatcher_.cell(i).controller().ledger();
    runtime::ResourceWatermarks& w = report_.cells[i].watermarks;
    w.peak_memory_bytes =
        std::max(w.peak_memory_bytes, ledger.memory_used_bytes());
    w.peak_compute_s = std::max(w.peak_compute_s, ledger.compute_used_s());
    w.peak_rbs = std::max(w.peak_rbs, ledger.rbs_used());
  }

  // No-orphaned-resources conservation: after every ladder application and
  // at each epoch boundary, every cell's ledger and deployed blocks must
  // re-derive exactly from the plans it currently serves
  // (sched/conservation.h). A violation is an internal invariant break.
  void check_conservation(const char* where) {
    if (!sched_on_) return;
    for (std::size_t i = 0; i < cell_count_; ++i) {
      book_.clear();
      for (const Job* job : served_[i])
        book_.push_back(sched::ServedTask{job->name, &job->plan});
      if (const auto violation = sched::find_orphaned_resources(
              dispatcher_.cell(i).controller(), book_, catalog_))
        throw std::logic_error(
            util::fmt("ClusterRuntime: orphaned resources on cell {} {}: {}",
                      i, where, *violation));
    }
  }

  // Applies ladder victim outcomes to the books: re-shaped plans replace
  // the served ones (same cell), preempted jobs lose their cell and
  // re-enter placement through the sched readmission route (first retry
  // after one backoff interval).
  void apply_victims(const std::vector<sched::VictimOutcome>& victims,
                     double now) {
    for (const sched::VictimOutcome& outcome : victims) {
      Job& victim = jobs_.at(outcome.id);
      switch (outcome.fate) {
        case sched::VictimOutcome::Fate::kDowngraded:
          flight(now, obs::FlightEventKind::kDowngrade, victim.trace_id,
                 victim.cell, 0, outcome.plan.accuracy, "ladder");
          victim.plan = outcome.plan;
          victim.admitted_task = outcome.task;
          victim.sched_downgraded = true;
          victim.history.ever_downgraded = true;
          ++report_.sched.downgrades;
          break;
        case sched::VictimOutcome::Fate::kRestored:
          // Rolled back — same spec, freshly solved plan, same cell.
          victim.plan = outcome.plan;
          victim.admitted_task = outcome.task;
          break;
        case sched::VictimOutcome::Fate::kPreempted: {
          flight(now, obs::FlightEventKind::kPreemption, victim.trace_id,
                 victim.cell, 0, 0.0, "ladder");
          unserve(victim);
          victim.route = Route::kSchedReadmission;
          victim.attempts = 0;
          victim.history.ever_preempted = true;
          ++report_.sched.preemptions;
          const double retry_at = now + options_.retry.retry_delay_s(1);
          if (retry_at > trace_.horizon_s) break;  // preempted-pending
          ++report_.sched.readmission_retries;
          schedule_retry(victim.trace_id, retry_at);
          break;
        }
      }
    }
  }

  // Ladder fallback for an arrival every accepting cell rejected: walk the
  // cells in the order the dispatcher tried them (preferred first, then
  // accepting siblings when spillover is on) and let rungs 2-4 downgrade
  // or evict lower-priority jobs served there. Cells serving nothing are
  // skipped: the plain rejection already was their whole ladder. The
  // candidates borrow the jobs' served specs; nothing in the ladder
  // touches the job books, so they stay valid until it returns.
  Placement run_ladder(const core::DotTask& task, std::size_t preferred,
                       double now) {
    std::vector<std::size_t> order{preferred};
    if (options_.dispatch.spillover)
      for (std::size_t i = 0; i < cell_count_; ++i)
        if (i != preferred && dispatcher_.accepting(i)) order.push_back(i);
    for (const std::size_t cell_index : order) {
      std::vector<sched::SchedCandidate> candidates;
      candidates.reserve(served_[cell_index].size());
      for (const Job* job : served_[cell_index])
        candidates.push_back(sched::SchedCandidate{
            job->trace_id, job->priority, job->admitted_task,
            job->sched_downgraded});
      if (candidates.empty()) continue;
      DispatcherSchedHost host(dispatcher_, cell_index, catalog_);
      const sched::LadderOutcome ladder = sched::run_ladder_fallback(
          host, task, candidates, options_.sched);
      report_.sched.probes += ladder.probes;
      report_.sched.rollbacks += ladder.rollbacks;
      apply_victims(ladder.victims, now);
      observe_cell(cell_index);
      if (ladder.action != sched::SchedAction::kReject)
        return Placement{cell_index, ladder.plan, ladder.action};
      check_conservation("after ladder rejection");
    }
    ++report_.sched.ladder_rejected;
    return Placement{};
  }

  // One placement attempt for a pending job. A first admission (and its
  // retries) instantiates the template and, under scheduling, falls back
  // to the ladder; displaced and evicted jobs re-place their served shape
  // plainly — an evicted job must not evict others. A failed attempt
  // backs off or, with attempts exhausted, rejects the job for good; each
  // outcome is accounted to the route's ledger.
  void attempt(Job& job, double now) {
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
    if (route == Route::kAdmission && sched_on_ &&
        outcome.preferred_cell != kNoCell) {
      ++report_.sched.probes;  // the placement is rung 1's one probe
      if (!outcome.admitted)
        placed = run_ladder(task, outcome.preferred_cell, now);
    }

    if (placed.cell != kNoCell) {
      serve(job, placed.cell);
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
      runtime::ClassStats& stats = report_.classes[job.class_index];
      ++stats.admitted;
      if (downgraded) ++stats.admitted_downgraded;
      CellReport& cell = report_.cells[job.cell];
      if (job.cell == outcome.preferred_cell)
        ++cell.admitted_preferred;
      else
        ++cell.admitted_spillover;
      flight(now, obs::FlightEventKind::kAdmission, job.trace_id, job.cell,
             job.attempts, job.plan.accuracy,
             downgraded ? "downgraded" : "");
      if (sched_on_) {
        switch (placed.action) {
          case sched::SchedAction::kAdmit:
            ++report_.sched.admitted_plain;
            break;
          case sched::SchedAction::kDowngrade:
            ++report_.sched.admitted_by_downgrade;
            break;
          case sched::SchedAction::kPreempt:
            ++report_.sched.admitted_by_preemption;
            break;
          case sched::SchedAction::kReject:
            break;
        }
        check_conservation("after admission");
      }
      return;
    }

    if (job.attempts >= options_.retry.max_attempts) {
      ++ledger.rejected;
      flight(now, obs::FlightEventKind::kRejection, job.trace_id, kNoCell,
             job.attempts, 0.0, ledger.exhausted_detail);
      rejected_.insert(job.trace_id);
      settle(job);
      return;
    }
    const double retry_at = now + options_.retry.retry_delay_s(job.attempts);
    // The horizon ends before the backoff expires: the job never gets
    // another shot. It stays pending; counted at the end.
    if (retry_at > trace_.horizon_s) return;
    ++ledger.retries;
    flight(now, obs::FlightEventKind::kRetryScheduled, job.trace_id, kNoCell,
           job.attempts, retry_at, ledger.detail);
    schedule_retry(job.trace_id, retry_at);
  }

  // A cell's active jobs by effective priority, ties by trace id: highest
  // first is the fault displacement order (they re-place against the
  // surviving capacity first), lowest first the migration candidates.
  // job.priority equals the template priority whenever scheduling (or
  // QoS) is off, so the order is unchanged on pre-sched configurations.
  std::vector<Job*> by_priority(std::size_t cell, bool highest_first) const {
    std::vector<Job*> order = served_[cell];
    std::sort(order.begin(), order.end(), [&](const Job* a, const Job* b) {
      if (a->priority != b->priority)
        return (a->priority > b->priority) == highest_first;
      return a->trace_id < b->trace_id;
    });
    return order;
  }

  // Displaces every job in `order` and re-places each at once; failures
  // back off through the fault readmission route. A fault displacement
  // supersedes a pending ladder preemption.
  void displace_and_readmit(const std::vector<Job*>& order, double now) {
    for (Job* job : order) {
      flight(now, obs::FlightEventKind::kDisplacement, job->trace_id,
             job->cell);
      unserve(*job);
      job->route = Route::kFaultReadmission;
      job->attempts = 0;
      job->history.ever_preempted = true;
      ++report_.faults.displaced;
      if (sched_on_) ++report_.sched.fault_displacements;
    }
    for (Job* job : order) attempt(*job, now);
  }

  // Fault application at the epoch boundary. Every due event applies as
  // one batch: the injector state after the whole batch gates admission,
  // so recovery actions see it (a crash and a recovery on one boundary
  // readmit the displaced jobs at once) — and a recovered cell may still
  // be budget-exhausted, and vice versa.
  void sync_gate(std::size_t cell) {
    dispatcher_.set_accepting(cell, injector_.state(cell).accepting());
  }
  void apply_faults(double now) {
    if (injector_.idle()) return;
    const std::vector<fault::FaultEvent> events = injector_.advance(now);
    if (events.empty()) return;
    ODN_TRACE_SPAN("fault", "fault.apply");
    for (const fault::FaultEvent& event : events) sync_gate(event.cell);
    for (const fault::FaultEvent& event : events) {
      report_.faults.record_event(event.kind);
      flight(now, obs::FlightEventKind::kFault, obs::kNoFlightTask,
             event.cell, 0, event.magnitude,
             fault::fault_event_kind_name(event.kind));
      switch (event.kind) {
        case fault::FaultEventKind::kCellCrash: {
          // The cell's controller state is lost; every task it served is
          // displaced and re-placed.
          const std::vector<Job*> order = by_priority(event.cell, true);
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
          const std::vector<Job*> order = by_priority(event.cell, true);
          for (const Job* job : order)
            if (dispatcher_.release(job->name) == kNoCell)
              throw std::logic_error(util::fmt(
                  "ClusterRuntime: displaced job '{}' unknown to dispatcher",
                  job->name));
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
  }

  // Epoch boundary: measure every cell's live deployment with its own
  // emulator stream, then run the migration pass over the cells that
  // showed violations (fixed cell order — deterministic).
  void measure_epoch(double now, std::size_t epoch_index) {
    ODN_TRACE_SPAN("cluster", "cluster.epoch");
    util::Stopwatch epoch_watch;
    ClusterEpochSnapshot snapshot;
    snapshot.time_s = now;
    snapshot.cells.resize(cell_count_);
    violations_by_cell_.assign(cell_count_, 0);
    epoch_class_samples_.assign(class_count_, 0);
    epoch_class_violations_.assign(class_count_, 0);
    for (std::size_t i = 0; i < cell_count_; ++i)
      measure_cell(i, now, epoch_index, snapshot);
    if (!injector_.idle() && snapshot.slo_violations > 0)
      attribute_fault_violations();
    if (migration_on_) migrate(now, snapshot);

    flight(now, obs::FlightEventKind::kEpochSeal, obs::kNoFlightTask, kNoCell,
           snapshot.samples, static_cast<double>(snapshot.slo_violations));

    // Burn-rate evaluation at every boundary, including task-free epochs
    // (empty epochs slide the windows). One null check when disabled.
    const std::size_t emitted = obs::maybe_observe_epoch(
        alert_engine_.get(), epoch_index + 1, now, epoch_class_samples_,
        epoch_class_violations_);
    if (emitted > 0 && obs::flight_enabled()) {
      const std::vector<obs::AlertRecord>& records =
          alert_engine_->log().records;
      for (std::size_t r = records.size() - emitted; r < records.size(); ++r)
        flight(now, obs::FlightEventKind::kAlert, obs::kNoFlightTask, kNoCell,
               records[r].epoch, records[r].fast_burn,
               records[r].firing ? "fire" : "resolve");
    }

    snapshot.measure_wall_s = epoch_watch.elapsed_seconds();
    report_.timeline.push_back(std::move(snapshot));
    ++report_.epochs;
  }

  // Emulates one cell's live deployment and charges its samples and SLO
  // violations to the cell's classes and the epoch.
  void measure_cell(std::size_t i, double now, std::size_t epoch_index,
                    ClusterEpochSnapshot& snapshot) {
    const EdgeCell& edge_cell = dispatcher_.cell(i);
    ClusterEpochSnapshot::CellSample& sample = snapshot.cells[i];
    sample.deployed_blocks = edge_cell.controller().deployed_blocks().size();
    const std::vector<Job*>& on = served_[i];
    snapshot.active_tasks += on.size();
    if (on.empty()) return;

    core::DeploymentPlan live;
    live.tasks.reserve(on.size());
    for (const Job* job : on) live.tasks.push_back(job->plan);
    sim::EmulatorOptions emu_options;
    emu_options.duration_s = options_.emulation_window_s;
    emu_options.seed =
        epoch_seed(options_.seed, epoch_index * cell_count_ + i);
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
    report_.batching.dispatches += measured.batch_dispatches;
    report_.batching.coalesced_requests += measured.coalesced_requests;
    report_.batching.max_batch =
        std::max(report_.batching.max_batch, measured.max_batch_observed);

    // Latency inflation scales measured samples at accounting time;
    // multiplying by a factor of 1 is exact.
    const double latency_factor =
        injector_.idle() ? 1.0 : injector_.state(i).latency_factor;
    CellReport& cell = report_.cells[i];
    cell_latencies_.clear();
    // Every served plan is admitted at a positive rate, so the emulator
    // emits exactly one trace per plan, in plan order: trace k is on[k]'s.
    if (measured.tasks.size() != on.size())
      throw std::logic_error(util::fmt(
          "ClusterRuntime: cell {} measured {} tasks but serves {}", i,
          measured.tasks.size(), on.size()));
    for (std::size_t k = 0; k < measured.tasks.size(); ++k) {
      const sim::TaskTrace& task_trace = measured.tasks[k];
      const Job& job = *on[k];
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
        cell_latencies_.push_back(measured_s);
        if (measured_s > task_trace.latency_bound_s) ++violations;
      }
      stats.slo_violations += violations;
      violations_by_cell_[i] += violations;
      snapshot.slo_violations += violations;
      snapshot.samples += task_trace.samples.size();
      epoch_class_samples_[class_index] += task_trace.samples.size();
      epoch_class_violations_[class_index] += violations;
      if (violations > 0)
        flight(now, obs::FlightEventKind::kSloViolation,
               task_trace.correlation, i, violations,
               task_trace.latency_bound_s);
    }
    if (!cell_latencies_.empty())
      sample.p95_latency_s = util::percentile_in_place(cell_latencies_, 95.0);
    sample.gpu_busy_fraction = measured.gpu_busy_fraction;
    if (violations_by_cell_[i] > 0) ++snapshot.cells_violating;
  }

  // Per-fault-class SLO impact: a violating cell's violations count toward
  // every fault class locally active on it; a nominal cell under pressure
  // while a sibling is down counts as crash impact, and only fault-free
  // epochs/cells land in the clear bucket. (A down cell serves nothing, so
  // it never violates.)
  void attribute_fault_violations() {
    bool any_down = false;
    for (std::size_t i = 0; i < cell_count_; ++i)
      if (!injector_.state(i).up) any_down = true;
    fault::FaultStats& faults = report_.faults;
    for (std::size_t i = 0; i < cell_count_; ++i) {
      const std::size_t violations = violations_by_cell_[i];
      if (violations == 0) continue;
      const fault::CellFaultState& cell_state = injector_.state(i);
      const bool radio = cell_state.bandwidth_factor != 1.0;
      const bool latency = cell_state.latency_factor != 1.0;
      const bool budget = cell_state.budget_exhausted;
      if (radio) faults.violations_during_radio += violations;
      if (latency) faults.violations_during_latency += violations;
      if (budget) faults.violations_during_budget += violations;
      if (!radio && !latency && !budget)
        (any_down ? faults.violations_during_crash : faults.violations_clear) +=
            violations;
    }
  }

  // Flash-crowd migration: cells under SLO pressure shed their
  // lowest-priority jobs to the sibling with the most headroom that
  // accepts the probe.
  void migrate(double now, ClusterEpochSnapshot& snapshot) {
    for (std::size_t source = 0; source < cell_count_; ++source) {
      if (violations_by_cell_[source] == 0) continue;
      std::vector<Job*> candidates = by_priority(source, false);
      if (candidates.size() > options_.migration_batch)
        candidates.resize(options_.migration_batch);

      for (Job* job : candidates) {
        ++report_.migration.attempted;

        // Target order: highest normalized headroom first, index
        // breaking ties (strict > comparison keeps it deterministic).
        std::vector<std::size_t> targets;
        for (std::size_t i = 0; i < cell_count_; ++i)
          if (i != source) targets.push_back(i);
        std::sort(targets.begin(), targets.end(),
                  [&](std::size_t a, std::size_t b) {
                    const double ha = dispatcher_.cell(a).normalized_headroom();
                    const double hb = dispatcher_.cell(b).normalized_headroom();
                    if (ha != hb) return ha > hb;
                    return a < b;
                  });

        bool moved = false;
        for (const std::size_t target : targets) {
          core::TaskPlan migrated_plan;
          if (dispatcher_.migrate(catalog_, job->admitted_task, job->name,
                                  target, &migrated_plan)) {
            flight(now, obs::FlightEventKind::kMigration, job->trace_id,
                   target, static_cast<std::uint64_t>(source));
            unserve(*job);
            serve(*job, target);
            job->plan = migrated_plan;
            ++report_.migration.migrated;
            ++report_.cells[source].migrations_out;
            ++report_.cells[target].migrations_in;
            ++snapshot.migrations;
            observe_cell(source);
            observe_cell(target);
            moved = true;
            break;
          }
        }
        if (!moved) ++report_.migration.no_target;
      }
    }
  }

  // The sched epoch snapshot: the settled tally plus every live job in the
  // bucket it would land in if it departed now. A job never admitted and
  // not yet resolved counts as pending, and so does every arrival ahead.
  void sched_snapshot(double now) {
    sched::SchedEpochBuckets buckets = settled_;
    buckets.time_s = now;
    buckets.pending = trace_arrivals_ - report_.total_arrivals();
    for (const auto& [id, job] : jobs_) {
      if (job.active) ++buckets.serving;
      if (!job.history.first_admitted_s && !job.active)
        ++buckets.pending;
      else
        count_bucket(sched::classify(job.history, job.active), buckets);
    }
    report_.sched.timeline.push_back(buckets);
  }

  util::Stopwatch run_watch_;
  const ClusterRuntime& runtime_;
  const edge::DnnCatalog& catalog_;
  const std::vector<core::DotTask>& templates_;
  const ClusterOptions& options_;
  ClusterDispatcher& dispatcher_;
  const runtime::WorkloadTrace& trace_;
  const std::size_t cell_count_ = dispatcher_.cell_count();
  const std::size_t class_count_ = options_.class_names.size();
  const bool sched_on_ = options_.sched.enabled;  // the ladder (src/sched/)
  // Flash-crowd migration needs a sibling to move to.
  const bool migration_on_ = options_.migrate_on_slo && cell_count_ > 1;

  ClusterReport report_;
  // Replays the fault plan at epoch boundaries.
  fault::FaultInjector injector_{options_.faults};
  // SLO burn-rate alerting (obs/alerts.h) over this loop's integer counts.
  std::unique_ptr<obs::BurnRateAlertEngine> alert_engine_;

  // The live jobs by trace id, and the finally rejected jobs that have not
  // departed yet (settled, so they hold no book).
  std::unordered_map<std::uint64_t, Job> jobs_;
  std::unordered_set<std::uint64_t> rejected_;
  // Each cell's active jobs, in arrival order: per-cell work costs
  // O(active), not O(trace). Map nodes never move, so the pointers hold.
  std::vector<std::vector<Job*>> served_ =
      std::vector<std::vector<Job*>>(cell_count_);

  std::priority_queue<LoopEvent, std::vector<LoopEvent>,
                      std::greater<LoopEvent>>
      calendar_;
  double epoch_clock_ = options_.epoch_s;  // the next epoch's boundary
  std::uint64_t retries_scheduled_ = 0;

  std::vector<sched::ServedTask> book_;  // conservation, reused per check
  // One cell's measured latencies, and this epoch's SLO violations per cell
  // and per-class counts (the alert engine's input), reused across epochs.
  std::vector<double> cell_latencies_;
  std::vector<std::size_t> violations_by_cell_;
  std::vector<std::uint64_t> epoch_class_samples_;
  std::vector<std::uint64_t> epoch_class_violations_;
  // The deadline buckets of every settled job, and the trace's arrivals
  // (SchedEpochBuckets::pending counts those still ahead, too).
  sched::SchedEpochBuckets settled_;
  const std::size_t trace_arrivals_ = trace_.arrival_count();
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
  trace.validate();
  if (trace.template_count != templates_.size())
    throw std::invalid_argument(util::fmt(
        "ClusterRuntime: trace indexes {} templates, runtime has {}",
        trace.template_count, templates_.size()));
  return EngineRun(*this, catalog_, templates_, options_, dispatcher_, trace)
      .play();
}

}  // namespace odn::cluster
