#include "util/mathx.h"

#include <algorithm>
#include <stdexcept>

namespace odn::util {

double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> moving_average(std::span<const double> values,
                                   std::size_t window) {
  if (window == 0)
    throw std::invalid_argument("moving_average: window must be >= 1");
  std::vector<double> smoothed(values.size());
  const auto half = static_cast<std::ptrdiff_t>(window / 2);
  const auto n = static_cast<std::ptrdiff_t>(values.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - half);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(n - 1, i + half);
    double sum = 0.0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j)
      sum += values[static_cast<std::size_t>(j)];
    smoothed[static_cast<std::size_t>(i)] =
        sum / static_cast<double>(hi - lo + 1);
  }
  return smoothed;
}

double percentile(std::vector<double> values, double pct) {
  return percentile_in_place(values, pct);
}

double percentile_in_place(std::span<double> values, double pct) {
  if (values.empty()) throw std::invalid_argument("percentile: empty input");
  if (pct < 0.0 || pct > 100.0)
    throw std::invalid_argument("percentile: pct out of [0,100]");
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Selection instead of a full sort: nth_element places the lo-th order
  // statistic and leaves only larger-or-equal values after it, so the
  // hi-th is their minimum. Both are the doubles a sort would put there.
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double lo_value = *lo_it;
  const double hi_value =
      hi == lo ? lo_value : *std::min_element(lo_it + 1, values.end());
  return lo_value * (1.0 - frac) + hi_value * frac;
}

double clamp(double value, double lo, double hi) noexcept {
  return std::min(std::max(value, lo), hi);
}

}  // namespace odn::util
