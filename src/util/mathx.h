// Small numeric helpers shared across the solver, the NN library and the
// emulator. Kept deliberately dependency-free.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace odn::util {

// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> values) noexcept;

// Centered simple moving average with the given window (window >= 1); the
// ends use the available neighborhood. Mirrors the smoothing the paper
// applies to Fig. 11 traces (window of 3 samples).
std::vector<double> moving_average(std::span<const double> values,
                                   std::size_t window);

// Percentile in [0, 100] via linear interpolation between order statistics.
double percentile(std::vector<double> values, double pct);
// The same percentile, computed in place: reorders `values`. (A named
// function, not an overload, so `percentile({...}, pct)` stays unambiguous.)
double percentile_in_place(std::span<double> values, double pct);

// Clamps to [lo, hi].
double clamp(double value, double lo, double hi) noexcept;

}  // namespace odn::util
