// Offloaded CV inference task model (paper Sec. III-A).
//
// A task is a CV method requested by mobile devices at a given rate, with a
// minimum accuracy, a maximum end-to-end latency, a priority in [0,1], and
// one or more input quality levels (each quality level fixes the number of
// bits per image transmitted uplink and bounds the achievable accuracy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace odn::edge {

// A quality level q ∈ Q_τ: how many bits one input image costs on the radio
// link and the accuracy ceiling the reduced input imposes (semantic/JPEG
// compression degrades achievable accuracy multiplicatively).
struct QualityLevel {
  double bits_per_image = 0.0;    // β(q)
  double accuracy_factor = 1.0;   // multiplies the DNN path accuracy
};

struct TaskSpec {
  std::string name;
  double priority = 0.5;        // p_τ ∈ [0, 1]
  double request_rate = 1.0;    // λ_τ, images/s
  double min_accuracy = 0.0;    // A_τ (top-1 / mAP depending on method)
  double max_latency_s = 1.0;   // L_τ, end-to-end
  double snr_db = 20.0;         // σ_τ, average SNR of the requesting devices
  std::vector<QualityLevel> qualities;  // Q_τ, at least one
  // Flight-recorder correlation id (the workload generator's job id),
  // threaded through admission → plan → emulator so task timelines can be
  // reconstructed post-run. Never enters the solve, the plan-cache
  // fingerprint, or any serialized report; ~0 = unset.
  std::uint64_t correlation = ~std::uint64_t{0};

  // The full-quality level (highest bits); tasks are created with it first.
  const QualityLevel& full_quality() const {
    if (qualities.empty())
      throw std::logic_error("TaskSpec '" + name + "': no quality levels");
    return qualities.front();
  }

  void validate() const;
};

[[noreturn]] void throw_duplicate_task_name(const std::string& name);

// Validates a whole task set (distinct names, sane ranges). `spec_of` maps
// an element of `tasks` to its TaskSpec (a member pointer works), so specs
// inside larger records are validated in place.
template <typename Range, typename SpecOf = std::identity>
void validate_tasks(const Range& tasks, SpecOf spec_of = {}) {
  std::unordered_set<std::string_view> names;
  for (const auto& task : tasks) {
    const TaskSpec& spec = std::invoke(spec_of, task);
    spec.validate();
    if (!names.insert(spec.name).second) throw_duplicate_task_name(spec.name);
  }
}

}  // namespace odn::edge
