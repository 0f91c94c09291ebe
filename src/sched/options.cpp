#include "sched/options.h"

#include <cmath>
#include <stdexcept>

namespace odn::sched {

void SchedOptions::validate() const {
  // Range checks are phrased so NaN fails them.
  if (!(downgrade_accuracy_factor > 0.0 && downgrade_accuracy_factor <= 1.0))
    throw std::invalid_argument(
        "SchedOptions: downgrade_accuracy_factor outside (0, 1]");
  if (!(min_priority_gap >= 0.0 && min_priority_gap <= 1.0))
    throw std::invalid_argument(
        "SchedOptions: min_priority_gap outside [0, 1]");
  if (!std::isfinite(default_deadline_s) || default_deadline_s <= 0.0)
    throw std::invalid_argument(
        "SchedOptions: default_deadline_s must be finite and positive");
}

}  // namespace odn::sched
