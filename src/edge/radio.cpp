#include "edge/radio.h"

#include <cmath>
#include <stdexcept>

namespace odn::edge {
namespace {

// LTE CQI table: (SNR threshold dB, spectral efficiency bit/s/Hz). A RB is
// 180 kHz; effective throughput applies a ~75% overhead factor for control
// signalling, cyclic prefix and coding, which lands the mid-SNR entries
// near the paper's 0.35 Mbps/RB operating point.
struct CqiEntry {
  double snr_db;
  double spectral_efficiency;
};

constexpr CqiEntry kCqiTable[] = {
    {-6.7, 0.1523}, {-4.7, 0.2344}, {-2.3, 0.3770}, {0.2, 0.6016},
    {2.4, 0.8770},  {4.3, 1.1758},  {5.9, 1.4766},  {8.1, 1.9141},
    {10.3, 2.4063}, {11.7, 2.7305}, {14.1, 3.3223}, {16.3, 3.9023},
    {18.7, 4.5234}, {21.0, 5.1152}, {22.7, 5.5547},
};

constexpr double kRbBandwidthHz = 180e3;
constexpr double kEffectiveFraction = 0.75;

}  // namespace

RadioModel RadioModel::fixed(double bits_per_rb_per_second) {
  if (!(std::isfinite(bits_per_rb_per_second) &&
        bits_per_rb_per_second > 0.0))
    throw std::invalid_argument(
        "RadioModel::fixed: rate must be finite and positive");
  RadioModel model;
  model.fixed_mode_ = true;
  model.fixed_rate_ = bits_per_rb_per_second;
  return model;
}

RadioModel RadioModel::lte() {
  RadioModel model;
  model.fixed_mode_ = false;
  return model;
}

RadioModel RadioModel::scaled(double factor) const {
  if (!(std::isfinite(factor) && factor > 0.0))
    throw std::invalid_argument(
        "RadioModel::scaled: factor must be finite and positive");
  RadioModel model = *this;
  model.derate_ *= factor;
  return model;
}

double RadioModel::bits_per_rb_per_second(double snr_db) const noexcept {
  if (fixed_mode_) return fixed_rate_ * derate_;
  double efficiency = kCqiTable[0].spectral_efficiency;
  for (const CqiEntry& entry : kCqiTable) {
    if (snr_db >= entry.snr_db) efficiency = entry.spectral_efficiency;
  }
  return efficiency * kRbBandwidthHz * kEffectiveFraction * derate_;
}

double RadioModel::transmission_time_s(double bits, std::size_t rbs,
                                       double snr_db) const {
  if (rbs == 0)
    throw std::invalid_argument("RadioModel: zero RBs allocated");
  return bits / (bits_per_rb_per_second(snr_db) *
                 static_cast<double>(rbs));
}

std::size_t RadioModel::min_rbs_for_deadline(double bits, double deadline_s,
                                             double snr_db) const {
  if (deadline_s <= 0.0)
    throw std::invalid_argument("RadioModel: non-positive deadline");
  const double required = bits / (bits_per_rb_per_second(snr_db) * deadline_s);
  return static_cast<std::size_t>(std::ceil(required - 1e-12));
}

std::size_t RadioModel::min_rbs_for_rate(double bits_per_second,
                                         double snr_db) const {
  const double required = bits_per_second / bits_per_rb_per_second(snr_db);
  return static_cast<std::size_t>(std::ceil(required - 1e-12));
}

}  // namespace odn::edge
