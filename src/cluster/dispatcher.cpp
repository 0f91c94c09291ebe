#include "cluster/dispatcher.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fmt.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace odn::cluster {
namespace {

bool admits_one(const core::DeploymentPlan& plan) {
  return plan.tasks.size() == 1 && plan.tasks[0].admitted;
}

// Placement accounting. The probe counters increment once per (task, cell)
// probe and each probe's verdict is independent of which thread runs it,
// so the totals match the serial loop for any ODN_THREADS.
struct DispatcherMetrics {
  obs::Counter& placement_attempts;
  obs::Counter& spillovers;
  obs::Counter& releases;
  obs::Counter& probe_admits;
  obs::Counter& probe_rejects;

  static DispatcherMetrics& instance() {
    static obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static DispatcherMetrics metrics{
        registry.counter("odn_cluster_placement_attempts_total"),
        registry.counter("odn_cluster_spillovers_total"),
        registry.counter("odn_cluster_releases_total"),
        registry.counter("odn_cluster_probe_admits_total"),
        registry.counter("odn_cluster_probe_rejects_total")};
    return metrics;
  }
};

}  // namespace

ClusterDispatcher::ClusterDispatcher(
    std::vector<CellSpec> cells, edge::RadioModel radio,
    core::OffloadnnController::Options controller_options,
    DispatcherOptions options)
    : options_(options) {
  if (cells.empty())
    throw std::invalid_argument("ClusterDispatcher: need at least one cell");
  cells_.reserve(cells.size());
  for (CellSpec& spec : cells)
    cells_.emplace_back(std::move(spec), radio, controller_options);
  accepting_.assign(cells_.size(), true);
}

std::vector<core::DeploymentPlan> ClusterDispatcher::probe_cells(
    const edge::DnnCatalog& catalog, const core::DotTask& task) const {
  ODN_TRACE_SPAN("cluster", "cluster.probe");
  DispatcherMetrics& metrics = DispatcherMetrics::instance();
  std::vector<core::DeploymentPlan> probes(cells_.size());
  auto probe_one = [&](std::size_t i) {
    // Non-accepting cells (crashed / budget-exhausted) keep an empty slot
    // without probing; the mask only changes on the serial event loop, so
    // the skip is identical for any thread count.
    if (!accepting_[i]) return;
    probes[i] = cells_[i].controller().probe_incremental(catalog, {task});
    if (admits_one(probes[i]))
      metrics.probe_admits.inc();
    else
      metrics.probe_rejects.inc();
  };
  // Each probe writes only its own slot, and a probe's arithmetic is
  // independent of which thread runs it, so the parallel fan-out is
  // bit-identical to the serial loop.
  if (options_.parallel_probe && cells_.size() > 1) {
    util::global_parallel_for(cells_.size(), probe_one);
  } else {
    for (std::size_t i = 0; i < cells_.size(); ++i) probe_one(i);
  }
  return probes;
}

std::size_t ClusterDispatcher::choose_cell(const edge::DnnCatalog& catalog,
                                           const core::DotTask& task) const {
  std::vector<core::DeploymentPlan> probes;
  return choose_cell(catalog, task, probes);
}

std::size_t ClusterDispatcher::choose_cell(
    const edge::DnnCatalog& catalog, const core::DotTask& task,
    std::vector<core::DeploymentPlan>& probes) const {
  // Every policy ranges over the accepting cells only; with every cell
  // fenced off (cluster-wide outage) there is no preferred cell at all.
  std::size_t first_accepting = kNoCell;
  for (std::size_t i = 0; i < cells_.size(); ++i)
    if (accepting_[i]) {
      first_accepting = i;
      break;
    }
  if (first_accepting == kNoCell) return kNoCell;

  switch (options_.policy) {
    case PlacementPolicy::kFirstFit:
      // Priority order is the fixed cell order; the admission loop walks
      // the remaining cells, so the first fitting cell wins.
      return first_accepting;
    case PlacementPolicy::kLeastLoaded: {
      std::size_t best = first_accepting;
      double best_headroom = cells_[best].normalized_headroom();
      for (std::size_t i = best + 1; i < cells_.size(); ++i) {
        if (!accepting_[i]) continue;
        const double headroom = cells_[i].normalized_headroom();
        // Strict > : ties stay with the lowest index.
        if (headroom > best_headroom) {
          best = i;
          best_headroom = headroom;
        }
      }
      return best;
    }
    case PlacementPolicy::kCostProbe: {
      probes = probe_cells(catalog, task);
      const auto objective = [&](std::size_t i) {
        return admits_one(probes[i])
                   ? probes[i].solution.cost.objective
                   : std::numeric_limits<double>::infinity();
      };
      std::size_t best = first_accepting;
      double best_objective = objective(best);
      for (std::size_t i = best + 1; i < cells_.size(); ++i) {
        // Strict < : ties stay with the lowest index. All-rejecting
        // probes leave best = first_accepting, whose rejecting probe the
        // admission then declines to commit. Non-accepting cells read
        // +inf, so they never win.
        if (objective(i) < best_objective) {
          best = i;
          best_objective = objective(i);
        }
      }
      return best;
    }
  }
  throw std::logic_error("ClusterDispatcher: invalid placement policy");
}

AdmissionOutcome ClusterDispatcher::admit(const edge::DnnCatalog& catalog,
                                          const core::DotTask& task,
                                          const core::Fingerprint*) {
  ODN_TRACE_SPAN("cluster", "cluster.admit");
  if (owner_.count(task.spec.name) != 0)
    throw std::invalid_argument(util::fmt(
        "ClusterDispatcher: task '{}' already admitted", task.spec.name));

  AdmissionOutcome outcome;
  std::vector<core::DeploymentPlan> probes;  // cost_probe: one per cell
  outcome.preferred_cell = choose_cell(catalog, task, probes);
  // Cluster-wide outage: every cell fenced off, nothing to try.
  if (outcome.preferred_cell == kNoCell) return outcome;

  std::vector<std::size_t> order;
  order.reserve(cells_.size());
  order.push_back(outcome.preferred_cell);
  // Under cost_probe the preferred cell holds the lowest-objective
  // admitting probe, so when it rejects, every accepting cell's probe
  // rejected too: there is no cell to spill to.
  if (options_.spillover && probes.empty()) {
    for (std::size_t i = 0; i < cells_.size(); ++i)
      if (i != outcome.preferred_cell && accepting_[i]) order.push_back(i);
  }

  DispatcherMetrics& metrics = DispatcherMetrics::instance();
  for (const std::size_t index : order) {
    metrics.placement_attempts.inc();
    core::OffloadnnController& controller = cells_[index].controller();
    // A cost_probe admission commits the cell's probe, and only when it
    // admits: a rejecting plan would change nothing but the ledger stamp.
    core::DeploymentPlan plan;
    if (probes.empty()) {
      plan = controller.admit_incremental(catalog, {task});
    } else {
      plan = std::move(probes[index]);
      if (admits_one(plan)) controller.commit(plan, catalog);
    }
    if (admits_one(plan)) {
      outcome.admitted = true;
      outcome.cell = index;
      outcome.spilled = index != outcome.preferred_cell;
      if (outcome.spilled) metrics.spillovers.inc();
      outcome.plan = std::move(plan.tasks[0]);
      owner_.emplace(task.spec.name, index);
      return outcome;
    }
  }
  return outcome;
}

core::DeploymentPlan ClusterDispatcher::admit_on(
    std::size_t index, const edge::DnnCatalog& catalog,
    std::vector<core::DotTask> requests) {
  if (!accepting_.at(index))
    throw std::invalid_argument(util::fmt(
        "ClusterDispatcher: admit_on targets non-accepting cell {}", index));
  for (const core::DotTask& request : requests)
    if (owner_.count(request.spec.name) != 0)
      throw std::invalid_argument(util::fmt(
          "ClusterDispatcher: task '{}' already admitted",
          request.spec.name));
  const core::DeploymentPlan plan = cells_[index].controller().admit_incremental(
      catalog, std::move(requests));
  for (const core::TaskPlan& task : plan.tasks)
    if (task.admitted) owner_.emplace(task.task_name, index);
  return plan;
}

std::size_t ClusterDispatcher::release(const std::string& task_name) {
  const auto it = owner_.find(task_name);
  if (it == owner_.end()) return kNoCell;
  const std::size_t index = it->second;
  if (!cells_[index].controller().release(task_name))
    throw std::logic_error(util::fmt(
        "ClusterDispatcher: owner map says cell {} holds '{}' but the "
        "controller disagrees",
        index, task_name));
  owner_.erase(it);
  DispatcherMetrics::instance().releases.inc();
  return index;
}

std::size_t ClusterDispatcher::owner_of(const std::string& task_name) const {
  const auto it = owner_.find(task_name);
  return it == owner_.end() ? kNoCell : it->second;
}

bool ClusterDispatcher::migrate(const edge::DnnCatalog& catalog,
                                const core::DotTask& task,
                                const std::string& task_name,
                                std::size_t target,
                                core::TaskPlan* migrated_plan) {
  ODN_TRACE_SPAN("cluster", "cluster.migrate");
  if (task.spec.name != task_name)
    throw std::invalid_argument(
        "ClusterDispatcher: migrate task/spec name mismatch");
  const std::size_t source = owner_of(task_name);
  if (source == kNoCell || target >= cells_.size() || target == source ||
      !accepting_[target])
    return false;

  // Probe first: the event loop is serial and the release below touches
  // only the source cell, so the target's probe is still current when it
  // is committed — a positive probe guarantees the task lands and is
  // never left without a cell.
  core::OffloadnnController& destination = cells_[target].controller();
  core::DeploymentPlan plan = destination.probe_incremental(catalog, {task});
  if (!admits_one(plan)) return false;

  if (!cells_[source].controller().release(task_name))
    throw std::logic_error(util::fmt(
        "ClusterDispatcher: migration source cell {} lost task '{}'",
        source, task_name));
  destination.commit(plan, catalog);

  owner_[task_name] = target;
  if (migrated_plan != nullptr) *migrated_plan = std::move(plan.tasks[0]);
  util::log_info("cluster", "migrated '{}' cell {} -> {}", task_name, source,
                 target);
  return true;
}

void ClusterDispatcher::set_accepting(std::size_t index, bool accepting) {
  accepting_.at(index) = accepting;
}

void ClusterDispatcher::crash_cell(std::size_t index) {
  if (index >= cells_.size())
    throw std::invalid_argument("ClusterDispatcher: crash of unknown cell");
  const std::size_t displaced = std::erase_if(
      owner_, [index](const auto& entry) { return entry.second == index; });
  cells_[index].controller().reset();
  accepting_[index] = false;
  util::log_info("cluster", "cell {} crashed, {} tasks displaced", index,
                 displaced);
}

void ClusterDispatcher::reset() {
  for (EdgeCell& cell : cells_) {
    cell.set_radio_derate(1.0);  // clear any fault derate from a prior run
    cell.controller().reset();
  }
  accepting_.assign(cells_.size(), true);
  owner_.clear();
}

std::size_t ClusterDispatcher::total_active() const {
  std::size_t active = 0;
  for (const EdgeCell& cell : cells_)
    active += cell.controller().active_tasks().size();
  return active;
}

}  // namespace odn::cluster
