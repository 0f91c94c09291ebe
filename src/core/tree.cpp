#include "core/tree.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace odn::core {

SolutionTree::SolutionTree(const DotInstance& instance)
    : instance_(instance) {
  if (!instance.finalized())
    throw std::logic_error("SolutionTree: instance not finalized");

  layers_.reserve(instance.tasks.size());
  for (const std::size_t task_index : instance.priority_order()) {
    const DotTask& task = instance.tasks[task_index];
    std::vector<TreeVertex> clique;
    clique.reserve(task.options.size());
    for (std::size_t o = 0; o < task.options.size(); ++o) {
      const PathOption& option = task.options[o];
      // Feasibility filters (1f) and the compute-time part of (1g).
      if (option.accuracy + 1e-12 < task.spec.min_accuracy ||
          option.inference_time_s >= task.spec.max_latency_s) {
        ++filtered_;
        continue;
      }
      clique.push_back(TreeVertex{
          .task_index = task_index,
          .option_index = o,
          .inference_time_s = option.inference_time_s,
          .accuracy = option.accuracy,
          .memory_bytes = instance.path_memory_bytes(option.path),
          .input_bits = option.input_bits,
      });
    }
    // The clique invariant: vertices ordered by increasing inference
    // compute time (ties: lower memory, then lower input bits — so a
    // compressed variant of the same path sorts first, then stable by
    // option).
    std::stable_sort(clique.begin(), clique.end(),
                     [](const TreeVertex& a, const TreeVertex& b) {
                       if (a.inference_time_s != b.inference_time_s)
                         return a.inference_time_s < b.inference_time_s;
                       if (a.memory_bytes != b.memory_bytes)
                         return a.memory_bytes < b.memory_bytes;
                       return a.input_bits < b.input_bits;
                     });
    total_vertices_ += clique.size();
    layers_.push_back(std::move(clique));
  }
}

std::span<const TreeVertex> SolutionTree::layer(
    std::size_t layer_index) const {
  if (layer_index >= layers_.size())
    throw std::out_of_range("SolutionTree::layer: bad index");
  return layers_[layer_index];
}

std::size_t SolutionTree::layer_task(std::size_t layer_index) const {
  if (layer_index >= layers_.size())
    throw std::out_of_range("SolutionTree::layer_task: bad index");
  return instance_.priority_order()[layer_index];
}

double SolutionTree::branch_count_estimate() const noexcept {
  double estimate = 1.0;
  for (const auto& clique : layers_)
    estimate *= static_cast<double>(std::max<std::size_t>(1, clique.size()));
  return estimate;
}

}  // namespace odn::core
