// Knobs for the preemption- and deadline-aware scheduling layer.
//
// The scheduler sits between the workload and the controller/dispatcher:
// per arrival it runs a preemption ladder (admit as-is → accuracy-downgrade
// cheaper-priority victims → preempt → reject) driven entirely by
// probe_incremental dry-runs, and the deadline classifier (sched::classify)
// buckets every job by SLO outcome at epoch boundaries. Disabled by default: with
// `enabled == false` the serving engine takes the exact pre-sched code path
// and its reports stay byte-identical.
#pragma once

#include <cstddef>

namespace odn::sched {

struct SchedOptions {
  bool enabled = false;

  // Ladder rungs. Disabling one skips it; with both off the ladder
  // degenerates to plain admit-or-reject (but jobs are still classified
  // into deadline buckets).
  bool allow_downgrade = true;
  bool allow_preempt = true;

  // At most this many served tasks may be downgraded or preempted on
  // behalf of one arrival. Victims are the lowest-priority served tasks
  // first (ties: earliest trace id).
  std::size_t max_victims = 2;

  // Accuracy-downgrade re-shape: a victim's min_accuracy is multiplied by
  // this factor, letting the solver pick a cheaper (z, r) / shallower path
  // for it. Must be in (0, 1].
  double downgrade_accuracy_factor = 0.9;

  // Admit-by deadline assumed for jobs whose trace carries no QoS
  // annotation (relative to arrival).
  double default_deadline_s = 10.0;

  // Throws std::invalid_argument on out-of-range values.
  void validate() const;
};

}  // namespace odn::sched
