// Fault + recovery accounting of the serving engine (both report kinds).
//
// Every counter is integral and incremented on the serial event loop, so
// the block serializes byte-identically for any ODN_THREADS. The block is
// only emitted into a report when `enabled` (a non-empty fault plan was
// configured) — an idle injector leaves report bytes untouched, which is
// what the golden_chaos_noop_differential ctest pins.
//
// Conservation invariant (checked by the recovery property tests): every
// displacement resolves in exactly one bucket —
//   displaced == displaced_replaced + displaced_readmitted
//              + displaced_rejected + displaced_departed
//              + displaced_pending_at_end.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "fault/fault_plan.h"

namespace odn::fault {

struct FaultStats {
  bool enabled = false;

  // Event application counts, per fault class.
  std::size_t events_applied = 0;
  std::size_t cell_crashes = 0;
  std::size_t cell_recoveries = 0;
  std::size_t radio_degradations = 0;
  std::size_t radio_restores = 0;
  std::size_t latency_inflations = 0;
  std::size_t latency_restores = 0;
  std::size_t budget_exhaustions = 0;
  std::size_t budget_restores = 0;

  // Recovery lifecycle. A displacement is one active job losing its cell
  // (crash) or its admission (radio degradation re-validation).
  std::size_t displaced = 0;
  std::size_t displaced_replaced = 0;    // re-placed at the fault boundary
  std::size_t displaced_readmitted = 0;  // re-admitted on a later retry
  std::size_t displaced_rejected = 0;    // readmission attempts exhausted
  std::size_t displaced_departed = 0;    // departed while re-queued
  std::size_t displaced_pending_at_end = 0;  // horizon hit mid-backoff
  std::size_t readmission_retries = 0;   // backoff retries scheduled

  // Per-fault-class SLO impact: epoch-measured violations attributed to
  // the fault classes active on the violating cell (crash pressure is the
  // cluster-wide fallback when the violating cell itself is nominal but a
  // sibling is down). A violation can count toward several local classes.
  std::size_t violations_during_crash = 0;
  std::size_t violations_during_radio = 0;
  std::size_t violations_during_latency = 0;
  std::size_t violations_during_budget = 0;
  std::size_t violations_clear = 0;

  void record_event(FaultEventKind kind);

  // Stable-key-order JSON object (no trailing newline after the closing
  // brace; `indent` prefixes every line but the first).
  void write_json(std::ostream& out, const std::string& indent) const;
};

}  // namespace odn::fault
