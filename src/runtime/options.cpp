#include "runtime/options.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace odn::runtime {

void RuntimeOptions::validate() const {
  // Every comparison below is false for NaN, so finiteness is checked
  // first: a NaN epoch would silently disable measurement.
  if (!std::isfinite(epoch_s) || epoch_s < 0.0)
    throw std::invalid_argument(
        "RuntimeOptions: epoch must be finite and non-negative");
  if (!std::isfinite(emulation_window_s))
    throw std::invalid_argument(
        "RuntimeOptions: non-finite emulation window");
  if (epoch_s > 0.0 && emulation_window_s <= 0.0)
    throw std::invalid_argument(
        "RuntimeOptions: non-positive emulation window");
  if (class_names.size() != class_boundaries.size() + 1)
    throw std::invalid_argument(
        "RuntimeOptions: class_names must be one longer than boundaries");
  if (!std::all_of(class_boundaries.begin(), class_boundaries.end(),
                   [](double b) { return std::isfinite(b); }))
    throw std::invalid_argument(
        "RuntimeOptions: non-finite class boundary");
  if (!std::is_sorted(class_boundaries.begin(), class_boundaries.end()))
    throw std::invalid_argument(
        "RuntimeOptions: class boundaries must be ascending");
  if (!faults.empty()) {
    faults.validate();
    if (epoch_s <= 0.0)
      throw std::invalid_argument(
          "RuntimeOptions: fault plan needs a positive epoch cadence");
  }
  if (sched.enabled) sched.validate();
  if (batching.enabled) batching.validate();
  if (alerts.enabled) {
    alerts.validate();
    if (epoch_s <= 0.0)
      throw std::invalid_argument(
          "RuntimeOptions: alerting needs a positive epoch cadence");
  }
  retry.validate();
}

}  // namespace odn::runtime
