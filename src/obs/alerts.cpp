#include "obs/alerts.h"

#include <cmath>
#include <stdexcept>

namespace odn::obs {

void AlertOptions::validate() const {
  if (!enabled) return;
  if (fast_window_epochs == 0)
    throw std::invalid_argument("AlertOptions: fast_window_epochs must be > 0");
  if (slow_window_epochs < fast_window_epochs)
    throw std::invalid_argument(
        "AlertOptions: slow window must be >= fast window");
  if (!(error_budget > 0.0) || !(error_budget <= 1.0))
    throw std::invalid_argument(
        "AlertOptions: error_budget must be in (0, 1]");
  const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  if (!positive(fast_burn_threshold) || !positive(slow_burn_threshold))
    throw std::invalid_argument(
        "AlertOptions: burn thresholds must be finite and > 0");
}

BurnRateAlertEngine::BurnRateAlertEngine(AlertOptions options,
                                         std::vector<std::string> class_names)
    : options_(options),
      class_names_(std::move(class_names)),
      classes_(class_names_.size()) {
  options_.validate();
  log_.enabled = options_.enabled;
}

BurnRateAlertEngine::Window BurnRateAlertEngine::window_tail(
    const ClassState& state, std::size_t epochs) const {
  Window total;
  const std::size_t have = state.history.size();
  const std::size_t take = epochs < have ? epochs : have;
  for (std::size_t i = have - take; i < have; ++i) {
    total.samples += state.history[i].samples;
    total.violations += state.history[i].violations;
  }
  return total;
}

double BurnRateAlertEngine::burn(const Window& window) const {
  if (window.samples < options_.min_window_samples || window.samples == 0)
    return 0.0;
  const double rate = static_cast<double>(window.violations) /
                      static_cast<double>(window.samples);
  return rate / options_.error_budget;
}

std::size_t BurnRateAlertEngine::observe_epoch(
    std::size_t epoch, double time_s,
    const std::vector<std::uint64_t>& samples,
    const std::vector<std::uint64_t>& violations) {
  if (samples.size() != classes_.size() ||
      violations.size() != classes_.size())
    throw std::invalid_argument(
        "BurnRateAlertEngine: per-class count size mismatch");

  ++log_.epochs_evaluated;
  std::size_t emitted = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    ClassState& state = classes_[c];
    state.history.push_back(Window{samples[c], violations[c]});
    while (state.history.size() > options_.slow_window_epochs)
      state.history.pop_front();

    const Window fast = window_tail(state, options_.fast_window_epochs);
    const Window slow = window_tail(state, options_.slow_window_epochs);
    const double fast_burn = burn(fast);
    const double slow_burn = burn(slow);

    bool transition = false;
    bool firing = state.firing;
    if (!state.firing && fast_burn >= options_.fast_burn_threshold &&
        slow_burn >= options_.slow_burn_threshold) {
      firing = true;
      transition = true;
    } else if (state.firing && fast_burn < options_.fast_burn_threshold) {
      firing = false;
      transition = true;
    }
    if (!transition) continue;

    state.firing = firing;
    AlertRecord record;
    record.seq = log_.fired + log_.resolved;
    record.epoch = epoch;
    record.time_s = time_s;
    record.class_name = class_names_[c];
    record.firing = firing;
    record.fast_burn = fast_burn;
    record.slow_burn = slow_burn;
    record.fast_samples = fast.samples;
    record.slow_samples = slow.samples;
    log_.records.push_back(record);
    if (firing)
      ++log_.fired;
    else
      ++log_.resolved;
    ++emitted;
  }
  return emitted;
}

bool BurnRateAlertEngine::firing(std::size_t class_index) const {
  return class_index < classes_.size() && classes_[class_index].firing;
}

}  // namespace odn::obs
