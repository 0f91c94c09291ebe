#include "edge/task.h"

#include <cmath>

#include "util/fmt.h"

namespace odn::edge {

// Every range check is written so that NaN fails it: a comparison with NaN
// is false, so `!(lo <= x && x <= hi)` rejects it where `x < lo || x > hi`
// would not.
void TaskSpec::validate() const {
  if (name.empty()) throw std::invalid_argument("TaskSpec: empty name");
  if (!(priority >= 0.0 && priority <= 1.0))
    throw std::invalid_argument(
        util::fmt("TaskSpec '{}': priority {} outside [0,1]", name, priority));
  if (!(std::isfinite(request_rate) && request_rate > 0.0))
    throw std::invalid_argument(util::fmt(
        "TaskSpec '{}': request rate {} not finite and positive", name,
        request_rate));
  if (!(min_accuracy >= 0.0 && min_accuracy <= 1.0))
    throw std::invalid_argument(
        util::fmt("TaskSpec '{}': accuracy {} outside [0,1]", name,
                  min_accuracy));
  if (!(std::isfinite(max_latency_s) && max_latency_s > 0.0))
    throw std::invalid_argument(util::fmt(
        "TaskSpec '{}': latency bound {} not finite and positive", name,
        max_latency_s));
  if (!std::isfinite(snr_db))
    throw std::invalid_argument(
        util::fmt("TaskSpec '{}': SNR {} dB not finite", name, snr_db));
  if (qualities.empty())
    throw std::invalid_argument(
        util::fmt("TaskSpec '{}': no quality levels", name));
  for (const QualityLevel& q : qualities) {
    if (!(std::isfinite(q.bits_per_image) && q.bits_per_image > 0.0))
      throw std::invalid_argument(util::fmt(
          "TaskSpec '{}': quality level bits {} not finite and positive",
          name, q.bits_per_image));
    if (!(q.accuracy_factor > 0.0 && q.accuracy_factor <= 1.0))
      throw std::invalid_argument(util::fmt(
          "TaskSpec '{}': accuracy factor {} outside (0,1]", name,
          q.accuracy_factor));
  }
}

void throw_duplicate_task_name(const std::string& name) {
  throw std::invalid_argument(
      util::fmt("validate_tasks: duplicate task name '{}'", name));
}

}  // namespace odn::edge
