// The DOT (DNNs for scalable Offloading of Tasks) problem instance —
// paper Sec. III-B, formulation (1a)-(1i).
//
// Decision variables (per task τ):
//   z_τ ∈ [0,1]  — admitted fraction of the request rate
//   x^d_τ, y_π   — which DNN path executes the task (here: one PathOption)
//   r_τ ∈ N      — resource blocks allocated to the task's radio slice
//
// The instance couples a task set with, per task, the candidate DNN path
// options (each referencing shared catalog blocks), the edge capacities and
// the radio model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "edge/dnn_catalog.h"
#include "edge/radio.h"
#include "edge/resources.h"
#include "edge/task.h"

namespace odn::core {

// A concrete execution option for a task: a DNN path at a given input
// quality level. Derived quantities are cached by DotInstance::finalize().
struct PathOption {
  edge::DnnPath path;
  std::size_t quality_index = 0;

  // Cached by finalize():
  double inference_time_s = 0.0;  // Σ c(s) over the path x compute_scale
  double accuracy = 0.0;          // a(π) x quality accuracy factor
  double input_bits = 0.0;        // β(q)

  // Amortized-compute factor in (0, 1] applied to the path's Σ c(s).
  // Batching-aware probes (model/batching.h) set it to the expected
  // per-request scale under epoch-boundary coalescing; the default 1.0
  // reproduces the unbatched cost bit-exactly. Declared last so positional
  // aggregate initializers predating the field stay valid.
  double compute_scale = 1.0;
};

struct DotTask {
  edge::TaskSpec spec;
  std::vector<PathOption> options;
};

struct DotInstance {
  std::string name;
  // Copying a catalog shares its block table (edge/dnn_catalog.h), so an
  // instance built per probe borrows the caller's blocks.
  edge::DnnCatalog catalog;
  // Blocks already deployed on the server (the paper's dynamic-scenario
  // rule): resident and trained, so the solve sees them as free — zero
  // µ(s) and ct(s) — while `catalog` keeps their real costs. Every solver
  // reads block costs through the accessors below, which apply this
  // overlay. finalize() validates it and snapshots it into a mask.
  std::vector<edge::BlockIndex> deployed;
  std::vector<DotTask> tasks;
  edge::EdgeResources resources;
  edge::RadioModel radio = edge::RadioModel::fixed(350e3);
  double alpha = 0.5;  // objective weight between rejection and resources

  // Validates the instance, caches every option's derived quantities and
  // computes the priority order. Must be called before handing the
  // instance to a solver.
  void finalize();
  bool finalized() const noexcept { return finalized_; }

  // µ(s) and ct(s) of block `b` as the solve sees them: 0 for a deployed
  // block, the catalog's value otherwise.
  double block_memory_bytes(edge::BlockIndex b) const {
    const edge::CatalogBlock& block = catalog.block(b);
    return is_deployed(b) ? 0.0 : block.memory_bytes;
  }
  double block_training_cost_s(edge::BlockIndex b) const {
    const edge::CatalogBlock& block = catalog.block(b);
    return is_deployed(b) ? 0.0 : block.training_cost_s;
  }
  // Σ µ(s) over the path's distinct blocks, through the overlay; the same
  // summation order as DnnPath::unique_memory_bytes.
  double path_memory_bytes(const edge::DnnPath& path) const;

  // Task indices sorted by decreasing priority (ties: lower index first) —
  // the layer order of the solution tree.
  const std::vector<std::size_t>& priority_order() const;

  std::size_t task_count() const noexcept { return tasks.size(); }

  // End-to-end latency of running `task` through `option` with `rbs`
  // resource blocks: transmission of β(q) bits over B(σ)·r plus the path's
  // inference compute time (paper's l_τ definition).
  double end_to_end_latency_s(const DotTask& task, const PathOption& option,
                              std::size_t rbs) const;

 private:
  bool is_deployed(edge::BlockIndex b) const noexcept {
    return b < deployed_mask_.size() && deployed_mask_[b] != 0;
  }

  std::vector<std::size_t> priority_order_;
  // One byte per catalog block, 1 where `deployed` lists it; empty when
  // nothing is deployed.
  std::vector<std::uint8_t> deployed_mask_;
  bool finalized_ = false;
};

}  // namespace odn::core
