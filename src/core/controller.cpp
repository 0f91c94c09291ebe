#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace odn::core {
namespace {

// Controller-level admission accounting (DESIGN.md §6 naming scheme).
// Counter increments happen on the serial plan/commit path or inside the
// cluster probe fan-out, whose per-cell call counts are thread-count
// invariant — so these totals snapshot identically for any ODN_THREADS.
struct ControllerMetrics {
  obs::Counter& plans;
  obs::Counter& probes;
  obs::Counter& commits;
  obs::Counter& admissions;
  obs::Counter& rejections;
  obs::Counter& releases;
  obs::Histogram& expected_latency;

  static ControllerMetrics& instance() {
    static obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static ControllerMetrics metrics{
        registry.counter("odn_controller_plans_total"),
        registry.counter("odn_controller_probes_total"),
        registry.counter("odn_controller_commits_total"),
        registry.counter("odn_controller_admissions_total"),
        registry.counter("odn_controller_rejections_total"),
        registry.counter("odn_controller_releases_total"),
        registry.histogram("odn_controller_expected_latency_seconds",
                           {0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0})};
    return metrics;
  }
};

}  // namespace

OffloadnnController::OffloadnnController(const edge::EdgeResources& resources,
                                         edge::RadioModel radio,
                                         Options options)
    : resources_(resources),
      radio_(radio),
      options_(options),
      ledger_(resources) {}

OffloadnnController::OffloadnnController(const edge::EdgeResources& resources,
                                         edge::RadioModel radio)
    : OffloadnnController(resources, radio, Options{}) {}

void OffloadnnController::reset() {
  active_.clear();
  block_memory_.clear();
  block_stamp_.clear();
  rebuild_ledger();
}

void OffloadnnController::next_stamp() {
  if (++stamp_ == 0) {  // wrapped: old marks could match again
    std::fill(block_stamp_.begin(), block_stamp_.end(), 0);
    stamp_ = 1;
  }
}

void OffloadnnController::rebuild_ledger() {
  ledger_.reset();
  deployed_blocks_.clear();
  next_stamp();

  // Active tasks in order, each block counted at its first appearance:
  // the ledger enters the plan keys and the discounted capacities, so the
  // sums must not change order (and a release must not subtract).
  double compute = 0.0;
  double shared_rbs = 0.0;
  double memory = 0.0;
  for (const TaskCommitment& task : active_) {
    compute += task.compute_s;
    shared_rbs += task.shared_rbs;
    for (const edge::BlockIndex b : task.blocks) {
      if (block_stamp_[b] == stamp_) continue;
      block_stamp_[b] = stamp_;
      memory += block_memory_[b];
      deployed_blocks_.push_back(b);
    }
  }
  std::sort(deployed_blocks_.begin(), deployed_blocks_.end());
  const auto rbs =
      static_cast<std::size_t>(std::ceil(shared_rbs - 1e-9));
  if (!ledger_.try_commit(compute, memory, rbs))
    throw std::logic_error(
        "OffloadnnController: rebuild exceeded capacity (invariant broken)");
}

bool OffloadnnController::release(const std::string& task_name) {
  const auto it =
      std::find_if(active_.begin(), active_.end(),
                   [&](const TaskCommitment& task) {
                     return task.name == task_name;
                   });
  if (it == active_.end()) return false;
  ODN_TRACE_SPAN("controller", "controller.release");
  active_.erase(it);
  rebuild_ledger();
  ControllerMetrics::instance().releases.inc();
  util::log_info("controller", "released task '{}': {} blocks deployed, "
                 "{:.1f} MB resident",
                 task_name, deployed_blocks_.size(),
                 ledger_.memory_used_bytes() / 1e6);
  return true;
}

std::vector<std::string> OffloadnnController::active_tasks() const {
  std::vector<std::string> names;
  names.reserve(active_.size());
  for (const TaskCommitment& task : active_) names.push_back(task.name);
  return names;
}

std::vector<std::string_view> OffloadnnController::active_names() const {
  std::vector<std::string_view> names;
  names.reserve(active_.size());
  for (const TaskCommitment& task : active_) names.push_back(task.name);
  return names;
}

DeploymentPlan OffloadnnController::admit(const edge::DnnCatalog& catalog,
                                          std::vector<DotTask> requests) {
  reset();
  return admit_incremental(catalog, std::move(requests));
}

DeploymentPlan OffloadnnController::admit_incremental(
    const edge::DnnCatalog& catalog, std::vector<DotTask> requests) {
  DeploymentPlan result = plan(catalog, std::move(requests));
  commit(result, catalog);
  return result;
}

DeploymentPlan OffloadnnController::probe_incremental(
    const edge::DnnCatalog& catalog, std::vector<DotTask> requests) const {
  ODN_TRACE_SPAN("controller", "controller.probe_incremental");
  ControllerMetrics::instance().probes.inc();
  return plan(catalog, std::move(requests));
}

DeploymentPlan OffloadnnController::plan(const edge::DnnCatalog& catalog,
                                         std::vector<DotTask> requests) const {
  ODN_TRACE_SPAN("controller", "controller.plan");
  ControllerMetrics::instance().plans.inc();

  // Step 2: assemble the DOT inputs — block availability and the resource
  // capacities left after the active commitments (the full capacities on
  // an empty ledger). The instance borrows the caller's block table:
  // copying a catalog copies no blocks.
  DotInstance instance;
  instance.name = "controller";
  instance.catalog = catalog;
  instance.tasks = std::move(requests);
  instance.resources = resources_;
  instance.radio = radio_;
  instance.alpha = options_.alpha;
  instance.resources.memory_capacity_bytes = std::max(
      1.0, resources_.memory_capacity_bytes - ledger_.memory_used_bytes());
  instance.resources.compute_capacity_s = std::max(
      1e-9, resources_.compute_capacity_s - ledger_.compute_used_s());
  instance.resources.total_rbs = resources_.total_rbs > ledger_.rbs_used()
                                     ? resources_.total_rbs - ledger_.rbs_used()
                                     : 1;
  // Already-deployed blocks are free: they are resident and trained (the
  // paper's dynamic-scenario rule). The solvers read them as free through
  // the instance's deployed-block overlay; the catalog itself is never
  // patched.
  instance.deployed = deployed_blocks_;
  instance.finalize();

  // Step 3: solve DOT.
  const DotSolution solution =
      options_.use_optimal_solver
          ? OptimalSolver{}.solve(instance)
          : OffloadnnSolver{options_.heuristic}.solve(instance);

  // Steps 4-6: allocate resources, deploy blocks, compute per-task plans,
  // in task order. Nothing here mutates the controller: commit() applies
  // the result.
  DeploymentPlan result;
  result.solution = solution;
  result.planned_by = this;
  result.planned_at = stamp_;
  result.tasks.resize(instance.tasks.size());
  std::unordered_set<edge::BlockIndex> new_blocks;
  double shared_rbs = 0.0;

  for (std::size_t t = 0; t < instance.tasks.size(); ++t) {
    const DotTask& task = instance.tasks[t];
    const TaskDecision& decision = solution.decisions[t];
    TaskPlan& task_plan = result.tasks[t];
    task_plan.task_name = task.spec.name;
    task_plan.correlation = task.spec.correlation;
    task_plan.latency_bound_s = task.spec.max_latency_s;
    task_plan.admitted = decision.admitted();
    if (!decision.admitted()) continue;
    const PathOption& option = task.options[decision.option_index];
    task_plan.admission_ratio = decision.admission_ratio;
    task_plan.admitted_rate =
        decision.admission_ratio * task.spec.request_rate;
    task_plan.slice_rbs = decision.rbs;
    task_plan.blocks = option.path.blocks;
    task_plan.expected_latency_s =
        instance.end_to_end_latency_s(task, option, decision.rbs);
    task_plan.accuracy = option.accuracy;
    task_plan.inference_time_s = option.inference_time_s;
    task_plan.input_bits = option.input_bits;
    ControllerMetrics::instance().expected_latency.observe(
        task_plan.expected_latency_s);
    shared_rbs +=
        decision.admission_ratio * static_cast<double>(decision.rbs);
    for (const edge::BlockIndex b : option.path.blocks) {
      const bool already_deployed = std::binary_search(
          deployed_blocks_.begin(), deployed_blocks_.end(), b);
      if (!already_deployed) new_blocks.insert(b);
    }
  }

  for (const edge::BlockIndex b : new_blocks) {
    result.deployed_blocks.push_back(b);
    // Memory is charged from the catalog's own costs (the deployed overlay
    // only affects the solver's view).
    result.memory_committed_bytes += catalog.block(b).memory_bytes;
  }
  std::sort(result.deployed_blocks.begin(), result.deployed_blocks.end());
  result.compute_committed_s = solution.cost.inference_compute_s;
  result.rbs_committed =
      static_cast<std::size_t>(std::ceil(shared_rbs - 1e-9));
  return result;
}

void OffloadnnController::commit(const DeploymentPlan& plan,
                                 const edge::DnnCatalog& catalog) {
  if (plan.planned_by != this || plan.planned_at != stamp_)
    throw std::logic_error(
        "OffloadnnController: commit of a plan not solved against this "
        "controller's current state");
  ODN_TRACE_SPAN("controller", "controller.commit");
  ControllerMetrics& metrics = ControllerMetrics::instance();
  metrics.commits.inc();
  for (const TaskPlan& task : plan.tasks) {
    if (task.admitted)
      metrics.admissions.inc();
    else
      metrics.rejections.inc();
  }
  for (const TaskPlan& task : plan.tasks) {
    if (!task.admitted) continue;
    for (const edge::BlockIndex b : task.blocks) {
      if (b >= block_memory_.size()) {
        block_memory_.resize(b + 1, 0.0);
        block_stamp_.resize(b + 1, 0);
      }
      block_memory_[b] = catalog.block(b).memory_bytes;
    }
    active_.push_back(TaskCommitment{
        .name = task.task_name,
        .compute_s = task.admitted_rate * task.inference_time_s,
        .shared_rbs = task.admission_ratio *
                      static_cast<double>(task.slice_rbs),
        .blocks = task.blocks});
  }

  // The solver honoured the (discounted) capacities, so rebuilding the
  // ledger from the active-task commitments must succeed; a throw here
  // indicates an internal inconsistency rather than a user error.
  rebuild_ledger();

  util::log_info("controller",
                 "{} admission: {}/{} tasks admitted, {:.1f} MB deployed, "
                 "{} RBs, obj {:.4f}",
                 plan.solution.solver_name, plan.solution.cost.admitted_tasks,
                 plan.tasks.size(), plan.memory_committed_bytes / 1e6,
                 plan.rbs_committed, plan.solution.cost.objective);
}

}  // namespace odn::core
