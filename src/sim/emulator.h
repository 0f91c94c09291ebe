// Discrete-event edge-offloading emulator — the Colosseum substitute
// (paper Sec. V-B; see DESIGN.md substitution table).
//
// Given a DeploymentPlan produced by the OffloaDNN controller, the emulator
// drives UEs that generate task requests at the admitted rates, transmits
// each input image over the task's dedicated radio slice (r_τ RBs at
// B(σ_τ) bits/s each, FIFO per slice), queues inferences on the edge GPU
// pool (⌊C⌋ parallel executors, FIFO), and records per-request end-to-end
// latency — the Fig. 11 measurement.
#pragma once

#include <cstdint>
#include <vector>

#include "core/controller.h"
#include "edge/radio.h"
#include "model/batching.h"

namespace odn::sim {

struct EmulatorOptions {
  double duration_s = 20.0;
  std::uint64_t seed = 2024;
  // Deterministic 1/rate request spacing (the paper's UEs transmit at the
  // configured task inference rate); set true for Poisson arrivals to
  // study queueing effects under bursty traffic.
  bool poisson_arrivals = false;
  // Downlink result payload per inference ("the task result is seamlessly
  // returned to the mobile device"): classification labels + confidence
  // are tiny relative to the uplink image. Transmitted over the same
  // slice after inference; 0 disables the downlink phase.
  double result_bits = 2e3;
  // Epoch-boundary request batching. Requests sharing a path aggregate
  // for up to batching.window_s (sealing early at batching.max_batch), and
  // each sealed batch occupies one GPU executor for
  // batching.cost.batch_cost_s(c1, size). When batching.enabled is false
  // every request is a batch of one, which costs exactly c1, and no other
  // batching field is read (window_s must still be finite and
  // non-negative).
  model::BatchingOptions batching{};
  // Flight-recorder context: emulator-internal timestamps are relative to
  // the emulation window, so epoch-driven callers pass the window's start
  // (simulated) time and, for cluster cells, the owning cell index. Only
  // read when the flight recorder is enabled; never affects the report.
  double flight_time_base_s = 0.0;
  std::int64_t flight_cell = -1;
};

struct LatencySample {
  double arrival_time_s = 0.0;
  double completion_time_s = 0.0;  // result delivered back to the device
  double latency_s = 0.0;       // completion - arrival (end-to-end)
  double transmission_s = 0.0;  // uplink slice wait + air time
  double inference_s = 0.0;     // GPU queueing + compute
  double downlink_s = 0.0;      // result return over the slice
};

struct TaskTrace {
  std::string task_name;
  // Correlation id carried from TaskPlan.correlation (flight-recorder
  // timelines); ~0 = unset.
  std::uint64_t correlation = ~std::uint64_t{0};
  double latency_bound_s = 0.0;
  // Fraction of emulated time the task's uplink slice was transmitting —
  // high values explain queueing under bursty arrivals.
  double slice_busy_fraction = 0.0;
  // Peak number of requests ever waiting for the slice.
  std::size_t peak_slice_queue = 0;
  std::vector<LatencySample> samples;

  double mean_latency_s() const;
  double p95_latency_s() const;
  double max_latency_s() const;
  std::size_t bound_violations() const;
  // Centered moving average of latencies (the paper smooths Fig. 11 with a
  // window of 3 samples).
  std::vector<double> smoothed_latencies(std::size_t window = 3) const;
};

struct EmulationReport {
  std::vector<TaskTrace> tasks;   // one per admitted task
  double gpu_busy_fraction = 0.0; // mean busy executors / pool size
  std::size_t total_requests = 0;
  // Batching counters — all zero unless options.batching.enabled.
  std::size_t batch_dispatches = 0;    // GPU dispatches (batches of >= 1)
  std::size_t coalesced_requests = 0;  // requests that rode along (Σ b−1)
  std::size_t max_batch_observed = 0;

  std::size_t total_violations() const;
};

class EdgeEmulator {
 public:
  // The plan is stored by value: epoch-driven callers (the serving runtime)
  // construct an emulator from a freshly assembled plan and may replace or
  // destroy the source between construction and run(), so holding a
  // reference would dangle.
  //
  // Throws std::invalid_argument for a non-finite or non-positive
  // duration, a non-finite or negative result_bits, batching.window_s or
  // compute capacity, invalid enabled batching options, or an admitted
  // task whose admitted_rate, inference_time_s or input_bits is non-finite
  // or negative (the message names the task).
  EdgeEmulator(core::DeploymentPlan plan, edge::RadioModel radio,
               double compute_capacity_s, EmulatorOptions options = {});

  EmulationReport run();

 private:
  core::DeploymentPlan plan_;
  edge::RadioModel radio_;
  double compute_capacity_s_;
  EmulatorOptions options_;
};

}  // namespace odn::sim
