#include "model/batching.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fmt.h"

namespace odn::model {

void BatchCostModel::validate() const {
  if (!(marginal_fraction > 0.0) || marginal_fraction > 1.0)
    throw std::invalid_argument(util::fmt(
        "BatchCostModel: marginal_fraction {} outside (0,1]",
        marginal_fraction));
}

void BatchingOptions::validate() const {
  cost.validate();
  if (max_batch == 0)
    throw std::invalid_argument("BatchingOptions: max_batch must be >= 1");
  if (!(std::isfinite(window_s) && window_s > 0.0))
    throw std::invalid_argument(
        "BatchingOptions: window_s must be finite and positive");
  if (!(std::isfinite(probe_window_s) && probe_window_s > 0.0))
    throw std::invalid_argument(
        "BatchingOptions: probe_window_s must be finite and positive");
}

double expected_batch_size(double request_rate,
                           const BatchingOptions& options) {
  const double expected = request_rate * options.probe_window_s;
  return std::clamp(expected, 1.0,
                    static_cast<double>(options.max_batch));
}

void apply_batching_probe(std::vector<core::DotTask>& tasks,
                          const BatchingOptions& options) {
  if (!options.enabled) return;
  options.validate();
  for (core::DotTask& task : tasks) {
    const double scale = options.cost.amortized_scale(
        expected_batch_size(task.spec.request_rate, options));
    for (core::PathOption& option : task.options) {
      option.compute_scale = scale;
    }
  }
}

}  // namespace odn::model
