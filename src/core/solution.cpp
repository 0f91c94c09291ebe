#include "core/solution.h"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "util/fmt.h"

namespace odn::core {

DotEvaluator::DotEvaluator(const DotInstance& instance,
                           MemoryAccounting accounting)
    : instance_(instance), accounting_(accounting) {
  if (!instance.finalized())
    throw std::logic_error("DotEvaluator: instance not finalized");
}

CostBreakdown DotEvaluator::evaluate(
    const std::vector<TaskDecision>& decisions) const {
  if (decisions.size() != instance_.tasks.size())
    throw std::invalid_argument(
        util::fmt("DotEvaluator: {} decisions for {} tasks", decisions.size(),
                  instance_.tasks.size()));

  CostBreakdown cost;
  // Blocks some earlier admitted task already pays for (kSharedOnce).
  std::vector<bool> active_blocks(instance_.catalog.block_count(), false);

  for (std::size_t t = 0; t < decisions.size(); ++t) {
    const TaskDecision& decision = decisions[t];
    const DotTask& task = instance_.tasks[t];
    const double z = decision.admission_ratio;
    cost.weighted_admission += z * task.spec.priority;
    cost.weighted_rejection += (1.0 - z) * task.spec.priority;
    if (!decision.admitted()) continue;

    ++cost.admitted_tasks;
    if (z >= 1.0 - 1e-12) ++cost.fully_admitted_tasks;
    const PathOption& option = task.options.at(decision.option_index);
    cost.inference_compute_s +=
        z * task.spec.request_rate * option.inference_time_s;
    cost.radio_fraction += z * static_cast<double>(decision.rbs) /
                           static_cast<double>(instance_.resources.total_rbs);
    cost.rbs_allocated += decision.rbs;

    const std::vector<edge::BlockIndex>& blocks = option.path.blocks;
    if (accounting_ == MemoryAccounting::kSharedOnce) {
      for (const edge::BlockIndex b : blocks) {
        if (!active_blocks.at(b)) {
          active_blocks[b] = true;
          cost.memory_bytes += instance_.block_memory_bytes(b);
          cost.training_cost_s += instance_.block_training_cost_s(b);
        }
      }
    } else {
      // Per-task accounting: every admitted task pays its full path, and
      // within the path duplicated block references still count once.
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (edge::first_occurrence(blocks, i)) {
          cost.memory_bytes += instance_.block_memory_bytes(blocks[i]);
          cost.training_cost_s += instance_.block_training_cost_s(blocks[i]);
        }
      }
    }
  }

  cost.training_fraction =
      cost.training_cost_s / instance_.resources.training_budget_s;
  cost.inference_fraction =
      cost.inference_compute_s / instance_.resources.compute_capacity_s;
  cost.memory_fraction =
      cost.memory_bytes / instance_.resources.memory_capacity_bytes;

  cost.objective =
      instance_.alpha * cost.weighted_rejection +
      (1.0 - instance_.alpha) * (cost.training_fraction + cost.radio_fraction +
                                 cost.inference_fraction);
  return cost;
}

std::vector<std::string> DotEvaluator::violations(
    const std::vector<TaskDecision>& decisions) const {
  std::vector<std::string> problems;
  if (decisions.size() != instance_.tasks.size()) {
    problems.push_back("decision vector size mismatch");
    return problems;
  }

  constexpr double kTol = 1e-9;
  double memory = 0.0;
  double compute = 0.0;
  double shared_rbs = 0.0;
  std::unordered_set<edge::BlockIndex> active_blocks;

  for (std::size_t t = 0; t < decisions.size(); ++t) {
    const TaskDecision& d = decisions[t];
    const DotTask& task = instance_.tasks[t];
    const std::string& name = task.spec.name;

    if (d.admission_ratio < -kTol || d.admission_ratio > 1.0 + kTol)
      problems.push_back(util::fmt("task '{}': z={} outside [0,1]", name,
                                   d.admission_ratio));
    if (!d.admitted()) continue;
    if (d.option_index >= task.options.size()) {
      problems.push_back(util::fmt("task '{}': bad option index", name));
      continue;
    }
    const PathOption& option = task.options[d.option_index];
    const double z = d.admission_ratio;

    // (1f) accuracy.
    if (option.accuracy + kTol < task.spec.min_accuracy)
      problems.push_back(util::fmt(
          "task '{}': accuracy {:.3f} < required {:.3f} (1f)", name,
          option.accuracy, task.spec.min_accuracy));

    // (1e) slice bandwidth must sustain the admitted rate.
    const double offered_bits = z * task.spec.request_rate * option.input_bits;
    const double slice_bits =
        instance_.radio.bits_per_rb_per_second(task.spec.snr_db) *
        static_cast<double>(d.rbs);
    if (offered_bits > slice_bits * (1.0 + 1e-9) + kTol)
      problems.push_back(util::fmt(
          "task '{}': offered {:.0f} b/s exceeds slice {:.0f} b/s (1e)", name,
          offered_bits, slice_bits));

    // (1g) end-to-end latency.
    if (d.rbs == 0) {
      problems.push_back(util::fmt("task '{}': admitted with 0 RBs", name));
    } else {
      const double latency =
          instance_.end_to_end_latency_s(task, option, d.rbs);
      if (latency > task.spec.max_latency_s * (1.0 + 1e-9) + kTol)
        problems.push_back(util::fmt(
            "task '{}': latency {:.4f}s exceeds bound {:.4f}s (1g)", name,
            latency, task.spec.max_latency_s));
    }

    compute += z * task.spec.request_rate * option.inference_time_s;
    shared_rbs += z * static_cast<double>(d.rbs);
    for (const edge::BlockIndex b : option.path.blocks)
      if (accounting_ == MemoryAccounting::kPerTask ||
          active_blocks.insert(b).second)
        memory += instance_.block_memory_bytes(b);
  }

  // (1b) memory.
  if (memory > instance_.resources.memory_capacity_bytes * (1.0 + 1e-9))
    problems.push_back(util::fmt(
        "memory {:.0f} B exceeds capacity {:.0f} B (1b)", memory,
        instance_.resources.memory_capacity_bytes));
  // (1c) compute.
  if (compute > instance_.resources.compute_capacity_s * (1.0 + 1e-9))
    problems.push_back(util::fmt(
        "compute {:.4f}s exceeds capacity {:.4f}s (1c)", compute,
        instance_.resources.compute_capacity_s));
  // (1d) radio.
  if (shared_rbs >
      static_cast<double>(instance_.resources.total_rbs) * (1.0 + 1e-9))
    problems.push_back(util::fmt(
        "time-shared RBs {:.2f} exceed capacity {} (1d)", shared_rbs,
        instance_.resources.total_rbs));
  return problems;
}

}  // namespace odn::core
