// Options of the serving engine (cluster/cluster_runtime.h). A single-cell
// deployment (runtime::ServingRuntime) takes these as they are; a
// multi-cell deployment (cluster::ClusterOptions) extends them with its
// dispatcher and migration knobs, so every feature below — faults,
// scheduling, batching, alerting — reaches both through one event loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"
#include "fault/fault_plan.h"
#include "model/batching.h"
#include "obs/alerts.h"
#include "runtime/retry_policy.h"
#include "sched/options.h"

namespace odn::runtime {

struct RuntimeOptions {
  // Base seed for the epoch emulations (each epoch and cell derives its
  // own stream, so measurements are independent but reproducible).
  std::uint64_t seed = 2024;
  // Epoch cadence: every epoch_s of simulated time the live deployment is
  // measured by the emulator; 0 disables measurement entirely.
  double epoch_s = 10.0;
  // Emulated wall-clock per measurement epoch.
  double emulation_window_s = 5.0;
  // Poisson request arrivals inside the emulator (bursty measurement
  // traffic); false falls back to deterministic 1/rate spacing.
  bool poisson_emulation = true;
  RetryPolicy retry{};
  // Priority classes: priority < boundaries[0] maps to class_names[0],
  // boundaries[i-1] <= p < boundaries[i] to class_names[i], and
  // p >= boundaries.back() to class_names.back(). Sizes must satisfy
  // class_names.size() == boundaries.size() + 1.
  std::vector<double> class_boundaries{0.35, 0.7};
  std::vector<std::string> class_names{"low", "medium", "high"};
  core::OffloadnnController::Options controller{};
  // Deterministic fault schedule, applied at epoch boundaries. An empty
  // plan is a strict no-op (report bytes identical to a fault-free build
  // of the options). A non-empty plan must target exactly the deployment's
  // cells and needs a positive epoch cadence.
  fault::FaultPlan faults{};
  // Preemption- and deadline-aware scheduling (src/sched/). Disabled is a
  // strict no-op: arrivals take the exact pre-sched placement path and the
  // report stays byte-identical.
  sched::SchedOptions sched{};
  // Epoch-boundary request batching (model/batching.h). Disabled is a
  // strict no-op: admission probes keep compute_scale = 1.0 and the epoch
  // emulator dispatches every request alone at its single-request cost.
  model::BatchingOptions batching{};
  // SLO burn-rate alerting (obs/alerts.h), evaluated over the per-class
  // violation counters at every epoch boundary. Disabled is a strict
  // no-op: no "alerts" block, one null check per epoch.
  obs::AlertOptions alerts{};

  // Throws std::invalid_argument on out-of-range or non-finite values.
  void validate() const;
};

}  // namespace odn::runtime
