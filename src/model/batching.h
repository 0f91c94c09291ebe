// Epoch-boundary request batching: the sub-linear cost model c(s, b) and
// the options consumed by the emulator, the serving engine, and the
// batching-aware admission probes.
//
// Xu et al. (PAPERS.md) show per-inference GPU cost falls sub-linearly in
// the batch size: the first request pays the full kernel launch + weight
// traffic, each extra same-model request only the marginal activation
// compute. We model a batch of b same-path requests as
//
//   c(s, b) = c(s, 1) · (1 + marginal_fraction · (b − 1)),   b ≥ 1
//
// with marginal_fraction ∈ (0, 1]; b = 1 returns c(s, 1) exactly (the
// branch avoids any float round-trip), so disabled/empty batching is a
// bit-identical no-op everywhere the model is applied.
#pragma once

#include <cstddef>
#include <vector>

#include "core/dot_problem.h"

namespace odn::model {

struct BatchCostModel {
  // Marginal cost of each extra request in a batch, as a fraction of the
  // single-request cost. Profiled via measure_batch_cost_model(); the
  // default matches the substrate measurement on the zoo transformer.
  double marginal_fraction = 0.45;

  // Total GPU time of a batch of `batch` same-path requests.
  double batch_cost_s(double single_s, std::size_t batch) const {
    if (batch <= 1) return single_s;
    return single_s *
           (1.0 + marginal_fraction * static_cast<double>(batch - 1));
  }

  // Per-request amortized compute as a fraction of the single-request
  // cost; accepts fractional (expected) batch sizes. Exactly 1.0 at b <= 1.
  double amortized_scale(double batch) const {
    if (batch <= 1.0) return 1.0;
    return (1.0 + marginal_fraction * (batch - 1.0)) / batch;
  }

  void validate() const;
};

struct BatchingOptions {
  // Strict no-op gate: when false, every consumer behaves as if each
  // request were a batch of one (byte-identical outputs).
  bool enabled = false;

  // Most same-path requests one GPU dispatch may coalesce.
  std::size_t max_batch = 8;

  BatchCostModel cost{};

  // Dispatch-boundary aggregation window: a request whose uplink finished
  // waits up to this long (or until its path accumulates max_batch
  // requests) for same-path company before the batch is dispatched. The
  // added latency is bounded by window_s; the GPU time saved follows the
  // sub-linear cost model.
  double window_s = 0.1;

  // Admission probes estimate the expected batch as the requests a path
  // accumulates over roughly this span across its concurrently served
  // jobs (several jobs instantiated from one template share the path, so
  // the effective path rate exceeds any single job's).
  double probe_window_s = 0.5;

  void validate() const;
};

// Expected coalesced batch for a task arriving at `request_rate` req/s:
// clamp(rate · probe_window_s, 1, max_batch).
double expected_batch_size(double request_rate,
                           const BatchingOptions& options);

// Batching-aware cost probes: sets every option's compute_scale to the
// amortized per-request factor for its task's request rate, so the
// solver/dispatcher admit against the coalesced cost. No-op (scales stay
// 1.0) when options.enabled is false.
void apply_batching_probe(std::vector<core::DotTask>& tasks,
                          const BatchingOptions& options);

}  // namespace odn::model
