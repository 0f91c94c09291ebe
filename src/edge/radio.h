// Radio model: B(σ), the per-resource-block throughput as a function of the
// device's average SNR.
//
// Two modes are provided:
//  - an LTE-like MCS table (CQI -> spectral efficiency) applied to a
//     180 kHz resource block, matching the Colosseum/srsLTE setup;
//  - a fixed-throughput mode matching the paper's Table IV, where
//    B(σ) = 0.35 Mbps per RB for every task.
#pragma once

#include <cstddef>
#include <vector>

namespace odn::edge {

class RadioModel {
 public:
  // Fixed throughput per RB (bits/s), as in Table IV. Throws
  // std::invalid_argument unless it is finite and positive.
  static RadioModel fixed(double bits_per_rb_per_second);
  // LTE-like: throughput derived from an MCS table lookup on SNR.
  static RadioModel lte();

  // B(σ): bits/s carried by one RB for a device at the given average SNR.
  double bits_per_rb_per_second(double snr_db) const noexcept;

  // Transmission time of `bits` over a slice of `rbs` resource blocks.
  double transmission_time_s(double bits, std::size_t rbs,
                             double snr_db) const;

  // Minimum integer RBs so that `bits` transmit within `deadline_s`.
  std::size_t min_rbs_for_deadline(double bits, double deadline_s,
                                   double snr_db) const;

  // Minimum integer RBs to sustain `bits_per_second` of offered load.
  std::size_t min_rbs_for_rate(double bits_per_second, double snr_db) const;

  // A copy of this model with its throughput scaled by `factor` (stacking
  // multiplicatively with any existing derate). Fault injection uses this
  // to model radio-bandwidth degradation: factor in (0, 1] derates every
  // SNR point uniformly; 1 is the identity (bit-exact, since multiplying a
  // finite double by 1.0 is exact). Throws std::invalid_argument unless
  // `factor` is finite and positive.
  RadioModel scaled(double factor) const;
  double derate() const noexcept { return derate_; }

  // Introspection (serialization support).
  bool is_fixed_mode() const noexcept { return fixed_mode_; }
  double fixed_rate_bits_per_second() const noexcept { return fixed_rate_; }

 private:
  RadioModel() = default;

  bool fixed_mode_ = true;
  double fixed_rate_ = 350e3;  // 0.35 Mbps (Table IV)
  double derate_ = 1.0;        // multiplicative throughput factor
};

}  // namespace odn::edge
