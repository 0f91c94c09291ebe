#include "runtime/retry_policy.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace odn::runtime {

void RetryPolicy::validate() const {
  // Written so NaN fails every check: a NaN delay would enter the event
  // calendar, whose ordering is then no longer a strict weak order.
  if (max_attempts == 0)
    throw std::invalid_argument("RetryPolicy: max_attempts must be >= 1");
  if (!std::isfinite(backoff_s) || backoff_s < 0.0)
    throw std::invalid_argument(
        "RetryPolicy: backoff must be finite and non-negative");
  if (!std::isfinite(backoff_multiplier) || backoff_multiplier <= 0.0)
    throw std::invalid_argument(
        "RetryPolicy: multiplier must be finite and positive");
  if (!(relaxed_accuracy_factor > 0.0 && relaxed_accuracy_factor <= 1.0))
    throw std::invalid_argument(
        "RetryPolicy: relaxed_accuracy_factor outside (0, 1]");
}

double RetryPolicy::retry_delay_s(std::size_t attempt) const {
  double delay = backoff_s;
  for (std::size_t k = 1; k < attempt; ++k) delay *= backoff_multiplier;
  return delay;
}

bool RetryPolicy::downgrades(std::size_t attempt) const {
  return downgrade_final_attempt && max_attempts > 1 &&
         attempt == max_attempts;
}

core::DotTask downgraded_task(core::DotTask task, const RetryPolicy& policy) {
  task.spec.min_accuracy *= policy.relaxed_accuracy_factor;
  return task;
}

}  // namespace odn::runtime
