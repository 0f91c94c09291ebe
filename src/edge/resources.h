// Edge computing platform capacities (paper Table III: R, C, Ct, M).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace odn::edge {

struct EdgeResources {
  // C: compute time available for inference, in CPU/GPU-seconds per second
  // of wall-clock (i.e., parallel compute capacity).
  double compute_capacity_s = 1.0;
  // Ct: compute budget for (fine-)tuning DNN blocks, seconds.
  double training_budget_s = 1.0;
  // M: memory available for resident DNN blocks, bytes.
  double memory_capacity_bytes = 1.0;
  // R: resource blocks in the cell.
  std::size_t total_rbs = 1;

  // Each capacity must be finite and positive; NaN fails every check.
  void validate() const {
    const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
    if (!positive(compute_capacity_s) || !positive(training_budget_s) ||
        !positive(memory_capacity_bytes) || total_rbs == 0)
      throw std::invalid_argument(
          "EdgeResources: capacity not finite and positive");
  }

  // Every capacity times `factor`, RBs rounded and kept >= 1: the slice of
  // this envelope that one cell of a fleet gets.
  EdgeResources scaled(double factor) const {
    EdgeResources slice = *this;
    slice.compute_capacity_s *= factor;
    slice.training_budget_s *= factor;
    slice.memory_capacity_bytes *= factor;
    slice.total_rbs = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               static_cast<double>(total_rbs) * factor)));
    return slice;
  }
};

// Running usage ledger against the capacities. The controller rebuilds it
// from scratch (reset() + try_commit per plan) after every change, so it
// only ever adds.
class ResourceLedger {
 public:
  explicit ResourceLedger(const EdgeResources& capacity)
      : capacity_(capacity) {
    capacity_.validate();
  }

  const EdgeResources& capacity() const noexcept { return capacity_; }

  double compute_used_s() const noexcept { return compute_used_; }
  double memory_used_bytes() const noexcept { return memory_used_; }
  std::size_t rbs_used() const noexcept { return rbs_used_; }

  bool try_commit(double compute_s, double memory_bytes, std::size_t rbs) {
    if (compute_used_ + compute_s > capacity_.compute_capacity_s + 1e-9 ||
        memory_used_ + memory_bytes > capacity_.memory_capacity_bytes + 1e-9 ||
        rbs_used_ + rbs > capacity_.total_rbs)
      return false;
    compute_used_ += compute_s;
    memory_used_ += memory_bytes;
    rbs_used_ += rbs;
    return true;
  }

  void reset() noexcept {
    compute_used_ = 0.0;
    memory_used_ = 0.0;
    rbs_used_ = 0;
  }

 private:
  EdgeResources capacity_;
  double compute_used_ = 0.0;
  double memory_used_ = 0.0;
  std::size_t rbs_used_ = 0;
};

}  // namespace odn::edge
