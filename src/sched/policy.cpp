#include "sched/policy.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace odn::sched {
namespace {

const core::TaskPlan* find_task_plan(const core::DeploymentPlan& plan,
                                     const std::string& name) {
  for (const core::TaskPlan& task : plan.tasks)
    if (task.task_name == name) return &task;
  return nullptr;
}

bool all_admitted(const core::DeploymentPlan& plan, std::size_t expected) {
  if (plan.tasks.size() != expected) return false;
  for (const core::TaskPlan& task : plan.tasks)
    if (!task.admitted) return false;
  return true;
}

// Records `outcome`, replacing any earlier entry for the same candidate —
// a victim released twice (downgrade rollback, then preemption) must
// surface its final state exactly once.
void upsert(std::vector<VictimOutcome>& outcomes, VictimOutcome outcome) {
  for (VictimOutcome& existing : outcomes) {
    if (existing.id == outcome.id) {
      existing = std::move(outcome);
      return;
    }
  }
  outcomes.push_back(std::move(outcome));
}

[[noreturn]] void fail_probe_commit_divergence(const std::string& name) {
  // probe_incremental is documented to return exactly the plan the commit
  // applies; a divergence here means the determinism contract broke.
  throw std::logic_error(
      "preemption ladder: probe admitted '" + name +
      "' but the matching commit did not (probe/commit divergence)");
}

}  // namespace

core::DotTask downgrade_spec(core::DotTask task, double factor) {
  task.spec.min_accuracy *= factor;
  return task;
}

LadderOutcome run_preemption_ladder(
    SchedHost& host, const core::DotTask& arrival,
    const std::vector<SchedCandidate>& candidates,
    const SchedOptions& options) {
  // Rung 1: admit as-is.
  if (all_admitted(host.probe(core::single_request(arrival)), 1)) {
    const core::DeploymentPlan committed =
        host.commit(core::single_request(arrival));
    const core::TaskPlan* plan = find_task_plan(committed, arrival.spec.name);
    if (plan == nullptr || !plan->admitted)
      fail_probe_commit_divergence(arrival.spec.name);
    LadderOutcome out;
    out.action = SchedAction::kAdmit;
    out.plan = *plan;
    out.probes = 1;
    return out;
  }
  LadderOutcome out =
      run_ladder_fallback(host, arrival, candidates, options);
  ++out.probes;
  return out;
}

LadderOutcome run_ladder_fallback(
    SchedHost& host, const core::DotTask& arrival,
    const std::vector<SchedCandidate>& candidates,
    const SchedOptions& options) {
  LadderOutcome out;

  auto probe = [&](std::vector<core::DotTask> requests) {
    ++out.probes;
    return host.probe(std::move(requests));
  };
  auto release_or_throw = [&](const SchedCandidate& victim) {
    const std::string& name = victim.task.get().spec.name;
    if (!host.release(name))
      throw std::logic_error("preemption ladder: candidate '" + name +
                             "' is not served");
  };

  // Victim order: lowest effective priority first (they cost the arrival's
  // class the least), ties broken by trace id — fully deterministic.
  std::vector<const SchedCandidate*> eligible;
  for (const SchedCandidate& c : candidates)
    if (c.priority < arrival.spec.priority)
      eligible.push_back(&c);
  std::sort(eligible.begin(), eligible.end(),
            [](const SchedCandidate* a, const SchedCandidate* b) {
              if (a->priority != b->priority)
                return a->priority < b->priority;
              return a->id < b->id;
            });

  // Victims whose rollback failed to re-admit (see header caveat): their
  // capacity is already free, so later rungs must not release them again.
  std::unordered_set<std::uint64_t> gone;

  // Restores `released` victims in reverse release order. A restore that
  // no longer fits becomes a preemption.
  auto rollback = [&](const std::vector<const SchedCandidate*>& released) {
    for (auto it = released.rbegin(); it != released.rend(); ++it) {
      const SchedCandidate* victim = *it;
      const core::DotTask& task = victim->task;
      ++out.rollbacks;
      const core::DeploymentPlan restored =
          host.commit(core::single_request(task));
      const core::TaskPlan* plan = find_task_plan(restored, task.spec.name);
      if (plan != nullptr && plan->admitted) {
        upsert(out.victims,
               VictimOutcome{victim->id, VictimOutcome::Fate::kRestored,
                             task, *plan});
      } else {
        gone.insert(victim->id);
        upsert(out.victims,
               VictimOutcome{victim->id, VictimOutcome::Fate::kPreempted,
                             task, core::TaskPlan{}});
      }
    }
  };

  // Rungs 2 and 3 share one climb: release victims cumulatively (cheapest
  // first), probe after each release, commit on the first probe that
  // admits everything, else roll every released victim back.
  //  - Rung 2, accuracy-downgrade (`reshape`): probe the joint set
  //    {arrival, downgraded victims} so the solver re-shapes every victim
  //    and fits the arrival in one solve. Already-downgraded candidates
  //    are not victims here.
  //  - Rung 3, preempt outright: same victim order (downgraded tasks are
  //    now fair game too), probing {arrival} alone after each eviction.
  auto climb = [&](bool reshape) {
    std::vector<const SchedCandidate*> pool;
    for (const SchedCandidate* c : eligible)
      if (!reshape || !c->downgraded) pool.push_back(c);
    if (pool.size() > options.max_victims) pool.resize(options.max_victims);

    std::vector<const SchedCandidate*> released;
    std::vector<core::DotTask> requests;  // arrival, then re-shaped victims
    requests.reserve(1 + pool.size());
    requests.push_back(arrival);
    for (const SchedCandidate* victim : pool) {
      if (gone.count(victim->id) == 0) {
        release_or_throw(*victim);
        released.push_back(victim);
        if (reshape)
          requests.push_back(downgrade_spec(
              victim->task, options.downgrade_accuracy_factor));
      }
      if (!all_admitted(probe(requests), requests.size())) continue;

      const core::DeploymentPlan committed = host.commit(requests);
      const core::TaskPlan* arrival_plan =
          find_task_plan(committed, arrival.spec.name);
      if (arrival_plan == nullptr || !arrival_plan->admitted)
        fail_probe_commit_divergence(arrival.spec.name);
      for (std::size_t i = 0; i < released.size(); ++i) {
        const SchedCandidate& evicted = *released[i];
        if (!reshape) {
          upsert(out.victims,
                 VictimOutcome{evicted.id, VictimOutcome::Fate::kPreempted,
                               evicted.task, core::TaskPlan{}});
          continue;
        }
        const std::string& name = evicted.task.get().spec.name;
        const core::TaskPlan* victim_plan = find_task_plan(committed, name);
        if (victim_plan == nullptr || !victim_plan->admitted)
          fail_probe_commit_divergence(name);
        upsert(out.victims,
               VictimOutcome{evicted.id, VictimOutcome::Fate::kDowngraded,
                             std::move(requests[i + 1]), *victim_plan});
      }
      out.action = reshape ? SchedAction::kDowngrade : SchedAction::kPreempt;
      out.plan = *arrival_plan;
      return true;
    }
    rollback(released);
    return false;
  };

  if (options.max_victims > 0) {
    if (options.allow_downgrade && climb(/*reshape=*/true)) return out;
    if (options.allow_preempt && climb(/*reshape=*/false)) return out;
  }

  // Rung 4: reject. Victim outcomes still matter — rollbacks may have
  // re-shaped plans (kRestored) or failed outright (kPreempted).
  out.action = SchedAction::kReject;
  return out;
}

}  // namespace odn::sched
