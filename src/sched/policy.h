// The preemption ladder — the per-arrival scheduling decision.
//
// On each arrival the ladder walks up to three rungs, each driven by
// probe_incremental dry-runs against the live controller state and settled
// by the existing serial commit path:
//
//   1. admit as-is        — probe {arrival}; commit when it fits. The
//                           serving engine's plain dispatcher placement
//                           is this rung; it then runs rungs 2-4 alone
//                           (run_ladder_fallback).
//   2. accuracy-downgrade — release the cheapest lower-priority served
//                           tasks one at a time and probe the joint set
//                           {arrival, downgraded victims}; the victims'
//                           min_accuracy is relaxed so the solver can
//                           re-shape them to a cheaper (z, r) / shallower
//                           path. Commit the joint set when it fits.
//   3. preempt            — release lower-priority served tasks outright,
//                           probing {arrival} after each, and commit when
//                           it fits. Evicted victims re-enter admission
//                           through the runtime's retry machinery.
//   4. reject             — nothing helped; roll every still-released
//                           victim back to its original shape.
//
// Every probe and commit happens on the caller's (serial) event loop, and
// probe_incremental returns exactly the plan the following commit applies,
// so the decision sequence is a pure function of (controller state,
// arrival, candidates) — byte-identical for any ODN_THREADS.
//
// Rollback caveat: re-committing a rolled-back victim re-solves its
// admission against the current state. The heuristic solver is not
// guaranteed monotone, so in rare states the restore itself can fail; the
// ladder then reports that victim as preempted rather than leaving the
// controller and the runtime's books disagreeing (the no-orphaned-resources
// invariant is checked after every ladder application).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/dot_problem.h"
#include "core/fingerprint.h"
#include "sched/options.h"

namespace odn::sched {

// The controller surface the ladder needs. The serving engine binds it to
// one cell behind the dispatcher so ownership bookkeeping stays
// consistent; ControllerSchedHost binds it to a bare controller.
class SchedHost {
 public:
  virtual ~SchedHost() = default;
  // Dry-run: the plan a subsequent commit of `requests` would apply.
  virtual core::DeploymentPlan probe(
      std::vector<core::DotTask> requests) const = 0;
  // Commits `requests` (only admitted tasks take effect) and returns the
  // applied plan.
  virtual core::DeploymentPlan commit(
      std::vector<core::DotTask> requests) = 0;
  // Releases a served task's commitment; false when unknown.
  virtual bool release(const std::string& name) = 0;
};

// SchedHost over a bare OffloadnnController (unit tests and benches that
// drive the ladder directly). The trailing pointer is ignored; it remains
// only for the benchmark driver, which still passes a catalog digest (see
// core/fingerprint.h).
class ControllerSchedHost : public SchedHost {
 public:
  ControllerSchedHost(core::OffloadnnController& controller,
                      const edge::DnnCatalog& catalog,
                      const core::Fingerprint* = nullptr)
      : controller_(controller), catalog_(catalog) {}

  core::DeploymentPlan probe(
      std::vector<core::DotTask> requests) const override {
    return controller_.probe_incremental(catalog_, std::move(requests));
  }
  core::DeploymentPlan commit(std::vector<core::DotTask> requests) override {
    return controller_.admit_incremental(catalog_, std::move(requests));
  }
  bool release(const std::string& name) override {
    return controller_.release(name);
  }

 private:
  core::OffloadnnController& controller_;
  const edge::DnnCatalog& catalog_;
};

// A served task the ladder may act on. The candidate borrows the caller's
// served spec: it must outlive the ladder call, and the ladder copies it
// only into the VictimOutcome of a victim it actually touched.
struct SchedCandidate {
  std::uint64_t id = 0;    // trace job id — the deterministic tie-break
  double priority = 0.0;   // effective job priority (QoS or template)
  std::reference_wrapper<const core::DotTask> task;  // spec served at
  bool downgraded = false; // already re-shaped by an earlier ladder
};

enum class SchedAction : std::uint8_t {
  kAdmit,      // fit as-is
  kDowngrade,  // fit after re-shaping victims to cheaper (z, r)
  kPreempt,    // fit after evicting victims
  kReject,     // no rung fit
};

// What happened to one candidate. Even on kReject the caller must apply
// these: a rolled-back victim serves under a freshly solved plan
// (kRestored), and a failed rollback leaves it preempted.
struct VictimOutcome {
  enum class Fate : std::uint8_t { kDowngraded, kPreempted, kRestored };
  std::uint64_t id = 0;
  Fate fate = Fate::kRestored;
  core::DotTask task;    // spec the task now serves under (not kPreempted);
                         // owned, since the caller applies it after the
                         // ladder returns
  core::TaskPlan plan;   // committed plan (meaningless for kPreempted)
};

struct LadderOutcome {
  SchedAction action = SchedAction::kReject;
  core::TaskPlan plan;   // the arrival's committed plan when admitted
  std::vector<VictimOutcome> victims;  // one entry per touched candidate
  std::size_t probes = 0;              // probe_incremental dry-runs issued
  std::size_t rollbacks = 0;           // victim restores committed
};

// `task` with its accuracy floor relaxed by `factor` — the re-shape handed
// to the solver for downgrade victims.
core::DotTask downgrade_spec(core::DotTask task, double factor);

// Runs the ladder for `arrival` against `candidates` (the currently served
// jobs). Serial; mutates host state through commit/release only.
// Equivalent to probing and committing {arrival} as rung 1, then calling
// run_ladder_fallback when that probe rejects.
LadderOutcome run_preemption_ladder(SchedHost& host,
                                    const core::DotTask& arrival,
                                    const std::vector<SchedCandidate>& candidates,
                                    const SchedOptions& options);

// Rungs 2-4 alone, for a caller whose own plain placement of `arrival`
// was rung 1 and was rejected against the host's current state (the
// serving engine's dispatcher placement). `probes` counts only the
// dry-runs issued here.
LadderOutcome run_ladder_fallback(
    SchedHost& host, const core::DotTask& arrival,
    const std::vector<SchedCandidate>& candidates,
    const SchedOptions& options);

}  // namespace odn::sched
