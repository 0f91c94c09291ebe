// Scheduling accounting of the serving engine (both report kinds).
//
// Mirrors fault/fault_stats.h: every counter is integral and incremented on
// the serial event loop, so the block serializes byte-identically for any
// ODN_THREADS, and it is only emitted into a report when `enabled` — a
// disabled scheduler leaves report bytes untouched (the
// golden_preempt_noop_differential ctest pins this).
//
// Conservation invariants (checked by the sched property tests):
//   - every ladder preemption resolves in exactly one bucket:
//       preemptions == preempted_readmitted + preempted_rejected
//                    + preempted_departed + preempted_pending_at_end
//   - every tracked arrival lands in exactly one deadline bucket:
//       met + missed + preempted + downgraded + rejected == arrivals
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace odn::sched {

// Epoch-boundary classification (sched::classify) of every job of the
// trace. Serving jobs are bucketed by their current trajectory (the bucket
// they would land in if they departed now); jobs never admitted and not yet
// resolved count as pending, and so, for now, do the trace's arrivals still
// ahead of the epoch: counting only arrived jobs would move the sched
// goldens and the benchmark's pinned report digest.
struct SchedEpochBuckets {
  double time_s = 0.0;
  std::size_t met = 0;
  std::size_t missed = 0;
  std::size_t preempted = 0;
  std::size_t downgraded = 0;
  std::size_t rejected = 0;
  std::size_t serving = 0;
  std::size_t pending = 0;
};

struct SchedStats {
  bool enabled = false;

  // Ladder decisions, one per arrival attempt routed through the policy.
  std::size_t admitted_plain = 0;          // rung 1: fit as-is
  std::size_t admitted_by_downgrade = 0;   // rung 2: victims re-shaped
  std::size_t admitted_by_preemption = 0;  // rung 3: victims evicted
  std::size_t ladder_rejected = 0;         // rung 4: no rung fit
  std::size_t probes = 0;                  // probe_incremental dry-runs
  std::size_t rollbacks = 0;               // victim restores committed

  // Victim lifecycle.
  std::size_t downgrades = 0;     // tasks re-shaped to a cheaper (z, r)
  std::size_t preemptions = 0;    // tasks evicted by the ladder
  std::size_t preempted_readmitted = 0;
  std::size_t preempted_rejected = 0;      // readmission attempts exhausted
  std::size_t preempted_departed = 0;      // departed while re-queued
  std::size_t preempted_pending_at_end = 0;
  std::size_t readmission_retries = 0;     // backoff retries scheduled
  std::size_t fault_displacements = 0;     // preempted by faults, not ladder

  // Final SLO buckets (sched::classify at the end of the run). Exactly one
  // per arrival.
  std::size_t met = 0;
  std::size_t missed = 0;      // first admission landed past the deadline
  std::size_t preempted = 0;   // evicted and never served again
  std::size_t downgraded = 0;  // served, but re-shaped or evicted-then-back
  std::size_t rejected = 0;    // never served at all

  std::vector<SchedEpochBuckets> timeline;

  // Stable-key-order JSON object (no trailing newline after the closing
  // brace; `indent` prefixes every line but the first).
  void write_json(std::ostream& out, const std::string& indent) const;
};

}  // namespace odn::sched
