#include "baseline/semoran.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/stopwatch.h"

namespace odn::baseline {

using core::DotInstance;
using core::DotSolution;
using core::DotTask;
using core::PathOption;
using core::TaskDecision;

SemOranSolver::SemOranSolver(SemOranOptions options) : options_(options) {}

DotSolution SemOranSolver::solve(const DotInstance& instance) const {
  if (!instance.finalized())
    throw std::logic_error("SemOranSolver: instance not finalized");
  util::Stopwatch watch;

  DotSolution solution;
  solution.solver_name = "SEM-O-RAN";
  solution.decisions.assign(instance.tasks.size(), TaskDecision{});

  double memory_used = 0.0;
  double compute_used = 0.0;
  std::size_t rbs_used = 0;
  double training_used = 0.0;

  const auto& res = instance.resources;

  for (const std::size_t t : instance.priority_order()) {
    const DotTask& task = instance.tasks[t];

    // The state-of-the-art deployment: the task's own full
    // highest-accuracy DNN — no structure optimization, no sharing.
    const PathOption* best_option = nullptr;
    for (const PathOption& option : task.options)
      if (!best_option || option.accuracy > best_option->accuracy)
        best_option = &option;
    if (!best_option) continue;

    // Per-task memory and training cost (blocks are NOT shared even when
    // the catalog would allow it — SEM-O-RAN has no notion of sharing).
    double path_memory = 0.0;
    double path_training = 0.0;
    const std::vector<edge::BlockIndex>& blocks = best_option->path.blocks;
    for (std::size_t i = 0; i < blocks.size(); ++i)
      if (edge::first_occurrence(blocks, i)) {
        path_memory += instance.block_memory_bytes(blocks[i]);
        path_training += instance.block_training_cost_s(blocks[i]);
      }
    const double path_compute =
        task.spec.request_rate * best_option->inference_time_s;  // z = 1

    // Semantic compression: pick the quality level (accuracy permitting)
    // that minimizes the slice size — the only per-quality resource — and
    // with it the maximum normalized resource increment.
    std::size_t best_rbs = 0;
    bool found_quality = false;
    const std::size_t quality_count =
        options_.semantic_compression ? task.spec.qualities.size() : 1;
    for (std::size_t q = 0; q < quality_count; ++q) {
      const edge::QualityLevel& quality = task.spec.qualities[q];
      if (best_option->path.accuracy * quality.accuracy_factor +
              1e-12 <
          task.spec.min_accuracy)
        continue;
      const double latency_slack =
          task.spec.max_latency_s - best_option->inference_time_s;
      if (latency_slack <= 0.0) continue;
      const std::size_t r_latency = std::max<std::size_t>(
          1, instance.radio.min_rbs_for_deadline(
                 quality.bits_per_image, latency_slack, task.spec.snr_db));
      const std::size_t r_rate = instance.radio.min_rbs_for_rate(
          task.spec.request_rate * quality.bits_per_image, task.spec.snr_db);
      const std::size_t rbs = std::max(r_latency, r_rate);
      if (!found_quality || rbs < best_rbs) {
        best_rbs = rbs;
        found_quality = true;
      }
    }
    if (!found_quality) continue;  // no quality level meets the accuracy bound

    // Binary admission: all of the task's resources must fit, else reject.
    if (memory_used + path_memory > res.memory_capacity_bytes * (1.0 + 1e-12))
      continue;
    if (compute_used + path_compute > res.compute_capacity_s * (1.0 + 1e-12))
      continue;
    if (rbs_used + best_rbs > res.total_rbs) continue;

    TaskDecision& decision = solution.decisions[t];
    decision.has_path = true;
    decision.option_index =
        static_cast<std::size_t>(best_option - task.options.data());
    decision.admission_ratio = 1.0;
    decision.rbs = best_rbs;

    memory_used += path_memory;
    compute_used += path_compute;
    training_used += path_training;
    rbs_used += best_rbs;
  }

  // Balanced post-allocation: spread residual RBs across admitted slices
  // (round-robin in priority order) so no slice starves, up to the
  // headroom factor. Larger slices shorten transmission times and absorb
  // rate bursts — SEM-O-RAN's "balanced manner" resource use.
  if (options_.slice_headroom_factor > 1.0 && rbs_used > 0) {
    std::vector<std::size_t> admitted;
    std::vector<std::size_t> cap;
    for (const std::size_t t : instance.priority_order())
      if (solution.decisions[t].admitted()) {
        admitted.push_back(t);
        cap.push_back(static_cast<std::size_t>(
            std::floor(options_.slice_headroom_factor *
                       static_cast<double>(solution.decisions[t].rbs))));
      }
    bool grew = true;
    while (rbs_used < res.total_rbs && grew) {
      grew = false;
      for (std::size_t i = 0; i < admitted.size() && rbs_used < res.total_rbs;
           ++i) {
        TaskDecision& d = solution.decisions[admitted[i]];
        if (d.rbs < cap[i]) {
          ++d.rbs;
          ++rbs_used;
          grew = true;
        }
      }
    }
  }

  // Cost breakdown with SEM-O-RAN's own accounting (per-task memory, its
  // chosen slice sizes). The objective uses the same DOT formula so the
  // numbers are directly comparable with OffloaDNN's.
  core::CostBreakdown cost;
  for (std::size_t t = 0; t < instance.tasks.size(); ++t) {
    const TaskDecision& d = solution.decisions[t];
    const DotTask& task = instance.tasks[t];
    const double z = d.admission_ratio;
    cost.weighted_admission += z * task.spec.priority;
    cost.weighted_rejection += (1.0 - z) * task.spec.priority;
    if (!d.admitted()) continue;
    ++cost.admitted_tasks;
    ++cost.fully_admitted_tasks;
    const PathOption& option = task.options[d.option_index];
    cost.inference_compute_s +=
        z * task.spec.request_rate * option.inference_time_s;
    cost.radio_fraction += z * static_cast<double>(d.rbs) /
                           static_cast<double>(res.total_rbs);
    cost.rbs_allocated += d.rbs;
  }
  cost.memory_bytes = memory_used;
  cost.training_cost_s = training_used;
  cost.training_fraction = training_used / res.training_budget_s;
  cost.inference_fraction = cost.inference_compute_s / res.compute_capacity_s;
  cost.memory_fraction = memory_used / res.memory_capacity_bytes;
  cost.objective =
      instance.alpha * cost.weighted_rejection +
      (1.0 - instance.alpha) * (cost.training_fraction + cost.radio_fraction +
                                cost.inference_fraction);

  solution.cost = cost;
  solution.solve_time_s = watch.elapsed_seconds();
  solution.branches_explored = 1;
  return solution;
}

}  // namespace odn::baseline
