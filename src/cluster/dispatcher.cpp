#include "cluster/dispatcher.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/fingerprint.h"
#include "core/plan_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fmt.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace odn::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Placement accounting. The probe counters increment once per (task, cell)
// probe and each probe's verdict is independent of which thread runs it,
// so the totals match the serial loop for any ODN_THREADS.
struct DispatcherMetrics {
  obs::Counter& placement_attempts;
  obs::Counter& spillovers;
  obs::Counter& releases;
  obs::Counter& probe_admits;
  obs::Counter& probe_rejects;
  // Shared-plan-cache accounting: cells answered straight from the
  // cross-cell cache, and probes avoided because a sibling cell's probe
  // this round had the exact same cache key. Dedup/lookup run on the
  // serial phase of probe_objectives, so both are ODN_THREADS-invariant.
  obs::Counter& probe_cache_hits;
  obs::Counter& probe_dedup_saved;

  static DispatcherMetrics& instance() {
    static obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static DispatcherMetrics metrics{
        registry.counter("odn_cluster_placement_attempts_total"),
        registry.counter("odn_cluster_spillovers_total"),
        registry.counter("odn_cluster_releases_total"),
        registry.counter("odn_cluster_probe_admits_total"),
        registry.counter("odn_cluster_probe_rejects_total"),
        registry.counter("odn_cluster_probe_cache_hits_total"),
        registry.counter("odn_cluster_probe_dedup_saved_total")};
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
  // One plan cache shared by every cell (or nullptr everywhere when
  // disabled, so the cluster has a uniform cold baseline). Admissions and
  // migrations run on the serial event loop; the cost_probe fan-out keeps
  // its own shared-cache accesses serial (see probe_objectives).
  if (options_.plan_cache)
    plan_cache_ =
        std::make_shared<core::PlanCache>(options_.plan_cache_capacity);
  for (EdgeCell& cell : cells_) cell.controller().set_plan_cache(plan_cache_);
}

bool ClusterDispatcher::caching_enabled() const noexcept {
  // Cells share one Options struct (set in the constructor), so the first
  // cell's clique memo is representative of all of them.
  return plan_cache_ != nullptr ||
         (!cells_.empty() &&
          cells_.front().controller().solver_cache() != nullptr);
}

std::vector<double> ClusterDispatcher::probe_objectives(
    const edge::DnnCatalog& catalog, const core::DotTask& task,
    const core::Fingerprint* digest) const {
  ODN_TRACE_SPAN("cluster", "cluster.probe");
  DispatcherMetrics& metrics = DispatcherMetrics::instance();
  std::vector<double> objectives(cells_.size(), kInf);

  if (plan_cache_ == nullptr) {
    auto probe_one = [&](std::size_t i) {
      // Non-accepting cells (crashed / budget-exhausted) keep their +inf
      // slot without probing; the mask only changes on the serial event
      // loop, so the skip is identical for any thread count.
      if (!accepting_[i]) return;
      const core::DeploymentPlan probe =
          cells_[i].controller().probe_incremental(catalog, {task}, digest);
      if (probe.tasks.size() == 1 && probe.tasks[0].admitted) {
        objectives[i] = probe.solution.cost.objective;
        metrics.probe_admits.inc();
      } else {
        metrics.probe_rejects.inc();
      }
    };
    // Each probe writes only its own slot, and a probe's arithmetic is
    // independent of which thread runs it, so the parallel fan-out is
    // bit-identical to the serial loop.
    if (options_.parallel_probe && cells_.size() > 1) {
      util::global_parallel_for(cells_.size(), probe_one);
    } else {
      for (std::size_t i = 0; i < cells_.size(); ++i) probe_one(i);
    }
    return objectives;
  }

  // Shared-cache path, three phases. Equal probe_cache_key strings are a
  // proof the probes would return identical bytes (the key is the
  // canonical encoding of the discounted sub-instance, catalog
  // digest-compressed), so each distinct key is probed once and its
  // verdict settled onto every cell in the
  // group. The shared cache is only touched from the serial phases; only
  // distinct cache-missing sub-instances fan out to the pool, each solved
  // through probe_incremental_uncached against a different cell's private
  // clique memo. Verdicts, per-cell admit/reject counters and cache
  // hit/miss counts are therefore all ODN_THREADS-invariant.
  const std::vector<core::DotTask> requests{task};
  struct Group {
    std::string key;
    std::vector<std::size_t> cells;
    core::DeploymentPlan solved;  // filled in phase 2 on a cache miss
  };
  std::vector<Group> groups;
  // No reallocation: the key-indexing views below point into groups' keys.
  groups.reserve(cells_.size());
  std::unordered_map<std::string_view, std::size_t> by_key;

  // Phase 1 (serial): key every accepting cell and group equal keys. The
  // catalog digest — the one O(blocks) key component — is computed at most
  // once per admission (admit() passes it in) and shared by all N cells'
  // keys and by the miss solves below. The request set is encoded once
  // too: each cell's key is its own state prefix followed by these bytes.
  const core::Fingerprint digest_local =
      digest != nullptr ? *digest : core::catalog_digest(catalog);
  core::CanonicalWriter request_writer;
  core::encode_task_set(request_writer, requests);
  const std::string encoded_requests = request_writer.take();
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!accepting_[i]) continue;
    std::string key = cells_[i].controller().probe_cache_key(
        catalog, encoded_requests, digest_local);
    const auto it = by_key.find(key);
    if (it != by_key.end()) {
      groups[it->second].cells.push_back(i);
      continue;
    }
    groups.push_back(Group{std::move(key), {i}, {}});
    by_key.emplace(std::string_view(groups.back().key), groups.size() - 1);
  }
  for (const Group& group : groups)
    if (group.cells.size() > 1)
      metrics.probe_dedup_saved.inc(group.cells.size() - 1);

  const auto settle = [&](const Group& group,
                          const core::DeploymentPlan& plan) {
    const bool admitted = plan.tasks.size() == 1 && plan.tasks[0].admitted;
    for (const std::size_t i : group.cells) {
      if (admitted) {
        objectives[i] = plan.solution.cost.objective;
        metrics.probe_admits.inc();
      } else {
        metrics.probe_rejects.inc();
      }
    }
  };

  // Phase 1b (serial): answer groups straight from the shared cache.
  // Hit groups settle immediately — the cached pointer must not be held
  // across the phase-3 inserts, which may evict it.
  std::vector<std::size_t> missing;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (const core::DeploymentPlan* hit = plan_cache_->find(groups[g].key)) {
      metrics.probe_cache_hits.inc(groups[g].cells.size());
      settle(groups[g], *hit);
    } else {
      missing.push_back(g);
    }
  }

  // Phase 2: solve each missing group once, through its first cell. Cells
  // appear in exactly one group, so no controller (and no private solver
  // memo) is ever touched by two threads.
  const auto solve_one = [&](std::size_t m) {
    Group& group = groups[missing[m]];
    group.solved =
        cells_[group.cells.front()]
            .controller()
            .probe_incremental_uncached(catalog, requests, &digest_local);
  };
  if (options_.parallel_probe && missing.size() > 1) {
    util::global_parallel_for(missing.size(), solve_one);
  } else {
    for (std::size_t m = 0; m < missing.size(); ++m) solve_one(m);
  }

  // Phase 3 (serial): publish the solved plans and settle their groups.
  for (const std::size_t g : missing) {
    plan_cache_->insert(std::move(groups[g].key), groups[g].solved);
    settle(groups[g], groups[g].solved);
  }
  return objectives;
}

std::size_t ClusterDispatcher::choose_cell(
    const edge::DnnCatalog& catalog, const core::DotTask& task,
    const core::Fingerprint* digest) const {
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
      const std::vector<double> objectives =
          probe_objectives(catalog, task, digest);
      std::size_t best = first_accepting;
      double best_objective = objectives[best];
      for (std::size_t i = best + 1; i < cells_.size(); ++i) {
        // Strict < : ties stay with the lowest index. All-rejecting
        // probes leave best = first_accepting; the admission attempt then
        // fails there and spillover confirms the rejection on the
        // siblings. Non-accepting cells hold +inf, so they never win.
        if (objectives[i] < best_objective) {
          best = i;
          best_objective = objectives[i];
        }
      }
      return best;
    }
  }
  throw std::logic_error("ClusterDispatcher: invalid placement policy");
}

AdmissionOutcome ClusterDispatcher::admit(const edge::DnnCatalog& catalog,
                                          const core::DotTask& task,
                                          const core::Fingerprint* digest) {
  ODN_TRACE_SPAN("cluster", "cluster.admit");
  if (owner_.count(task.spec.name) != 0)
    throw std::invalid_argument(util::fmt(
        "ClusterDispatcher: task '{}' already admitted", task.spec.name));

  // One catalog digest per admission, shared by the probe fan-out and
  // every admission attempt's cache keys — taken from the caller when
  // provided, computed here otherwise (skipped when no cache would read
  // it: the cold path must not pay for the warm path's keys).
  core::Fingerprint digest_local;
  const core::Fingerprint* digest_ptr = digest;
  if (digest_ptr == nullptr && caching_enabled()) {
    digest_local = core::catalog_digest(catalog);
    digest_ptr = &digest_local;
  }

  AdmissionOutcome outcome;
  outcome.preferred_cell = choose_cell(catalog, task, digest_ptr);
  // Cluster-wide outage: every cell fenced off, nothing to try.
  if (outcome.preferred_cell == kNoCell) return outcome;

  std::vector<std::size_t> order;
  order.reserve(cells_.size());
  order.push_back(outcome.preferred_cell);
  if (options_.spillover) {
    for (std::size_t i = 0; i < cells_.size(); ++i)
      if (i != outcome.preferred_cell && accepting_[i]) order.push_back(i);
  }

  DispatcherMetrics& metrics = DispatcherMetrics::instance();
  for (const std::size_t index : order) {
    metrics.placement_attempts.inc();
    const core::DeploymentPlan plan =
        cells_[index].controller().admit_incremental(catalog, {task},
                                                     digest_ptr);
    if (plan.tasks.size() == 1 && plan.tasks[0].admitted) {
      outcome.admitted = true;
      outcome.cell = index;
      outcome.spilled = index != outcome.preferred_cell;
      if (outcome.spilled) metrics.spillovers.inc();
      outcome.plan = plan.tasks[0];
      owner_.emplace(task.spec.name, index);
      return outcome;
    }
  }
  return outcome;
}

core::DeploymentPlan ClusterDispatcher::admit_on(
    std::size_t index, const edge::DnnCatalog& catalog,
    std::vector<core::DotTask> requests, const core::Fingerprint* digest) {
  if (!accepting_.at(index))
    throw std::invalid_argument(util::fmt(
        "ClusterDispatcher: admit_on targets non-accepting cell {}", index));
  for (const core::DotTask& request : requests)
    if (owner_.count(request.spec.name) != 0)
      throw std::invalid_argument(util::fmt(
          "ClusterDispatcher: task '{}' already admitted",
          request.spec.name));
  const core::DeploymentPlan plan = cells_[index].controller().admit_incremental(
      catalog, std::move(requests), digest);
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
                                core::TaskPlan* migrated_plan,
                                const core::Fingerprint* digest) {
  ODN_TRACE_SPAN("cluster", "cluster.migrate");
  if (task.spec.name != task_name)
    throw std::invalid_argument(
        "ClusterDispatcher: migrate task/spec name mismatch");
  const std::size_t source = owner_of(task_name);
  if (source == kNoCell || target >= cells_.size() || target == source ||
      !accepting_[target])
    return false;

  // Probe first: the event loop is serial, so the target cell's state
  // cannot change between the probe and the admission below — a positive
  // probe guarantees the re-admission lands and the task is never left
  // without a cell.
  core::Fingerprint digest_local;
  const core::Fingerprint* digest_ptr = digest;
  if (digest_ptr == nullptr && caching_enabled()) {
    digest_local = core::catalog_digest(catalog);
    digest_ptr = &digest_local;
  }
  const core::DeploymentPlan probe =
      cells_[target].controller().probe_incremental(catalog, {task},
                                                    digest_ptr);
  if (probe.tasks.size() != 1 || !probe.tasks[0].admitted) return false;

  if (!cells_[source].controller().release(task_name))
    throw std::logic_error(util::fmt(
        "ClusterDispatcher: migration source cell {} lost task '{}'",
        source, task_name));
  const core::DeploymentPlan plan =
      cells_[target].controller().admit_incremental(catalog, {task},
                                                    digest_ptr);
  if (plan.tasks.size() != 1 || !plan.tasks[0].admitted)
    throw std::logic_error(util::fmt(
        "ClusterDispatcher: probe admitted '{}' on cell {} but the "
        "commit rejected it",
        task_name, target));

  owner_[task_name] = target;
  if (migrated_plan != nullptr) *migrated_plan = plan.tasks[0];
  util::log_info("cluster", "migrated '{}' cell {} -> {}", task_name, source,
                 target);
  return true;
}

void ClusterDispatcher::set_accepting(std::size_t index, bool accepting) {
  accepting_.at(index) = accepting;
}

std::vector<std::string> ClusterDispatcher::crash_cell(std::size_t index) {
  if (index >= cells_.size())
    throw std::invalid_argument("ClusterDispatcher: crash of unknown cell");
  std::vector<std::string> displaced;
  for (const auto& [name, cell] : owner_)
    if (cell == index) displaced.push_back(name);
  std::sort(displaced.begin(), displaced.end());
  for (const std::string& name : displaced) owner_.erase(name);
  cells_[index].controller().reset();
  accepting_[index] = false;
  util::log_info("cluster", "cell {} crashed, {} tasks displaced", index,
                 displaced.size());
  return displaced;
}

void ClusterDispatcher::recover_cell(std::size_t index) {
  if (index >= cells_.size())
    throw std::invalid_argument("ClusterDispatcher: recover of unknown cell");
  accepting_[index] = true;
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
