#include "sched/conservation.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "obs/json.h"
#include "util/fmt.h"

namespace odn::sched {

DerivedCommitment derive_commitment(
    const std::vector<const core::TaskPlan*>& plans,
    const edge::DnnCatalog& catalog) {
  // Mirrors OffloadnnController::commit + rebuild_ledger term for term:
  // same per-task products, same accumulation order, same first-insert
  // memory accounting — so equal inputs produce bit-identical sums.
  DerivedCommitment derived;
  std::unordered_set<edge::BlockIndex> blocks;
  for (const core::TaskPlan* plan : plans) {
    // The products must round to double *before* the adds, exactly like
    // the controller's stored TaskCommitment fields — an FMA-contracted
    // multiply-add would round once instead of twice and drift a ulp from
    // the ledger (the sched CMakeLists compiles this file with
    // -ffp-contract=off to pin that).
    const double compute_s = plan->admitted_rate * plan->inference_time_s;
    const double shared_rbs =
        plan->admission_ratio * static_cast<double>(plan->slice_rbs);
    derived.compute_s += compute_s;
    derived.shared_rbs += shared_rbs;
    for (const edge::BlockIndex b : plan->blocks)
      if (blocks.insert(b).second)
        derived.memory_bytes += catalog.block(b).memory_bytes;
  }
  derived.deployed_blocks.assign(blocks.begin(), blocks.end());
  std::sort(derived.deployed_blocks.begin(), derived.deployed_blocks.end());
  derived.rbs =
      static_cast<std::size_t>(std::ceil(derived.shared_rbs - 1e-9));
  return derived;
}

std::optional<std::string> find_orphaned_resources(
    const core::OffloadnnController& controller,
    const std::vector<std::pair<std::string, const core::TaskPlan*>>& served,
    const edge::DnnCatalog& catalog) {
  std::unordered_map<std::string, const core::TaskPlan*> by_name;
  for (const auto& [name, plan] : served) {
    if (!by_name.emplace(name, plan).second)
      return util::fmt("task '{}' served twice in the caller's book", name);
  }

  const std::vector<std::string> active = controller.active_tasks();
  if (active.size() != by_name.size())
    return util::fmt(
        "controller serves {} tasks but the caller's book has {}",
        active.size(), by_name.size());
  // Sizes match and active names are unique, so one direction suffices.
  std::vector<const core::TaskPlan*> plans;
  plans.reserve(active.size());
  for (const std::string& name : active) {
    const auto it = by_name.find(name);
    if (it == by_name.end())
      return util::fmt(
          "controller serves task '{}' the caller's book does not", name);
    plans.push_back(it->second);
  }

  const DerivedCommitment derived = derive_commitment(plans, catalog);
  const edge::ResourceLedger& ledger = controller.ledger();
  if (derived.compute_s != ledger.compute_used_s())
    return util::fmt(
        "compute mismatch: ledger holds {} s, served tasks re-derive {} s",
        obs::json_double(ledger.compute_used_s()),
        obs::json_double(derived.compute_s));
  if (derived.memory_bytes != ledger.memory_used_bytes())
    return util::fmt(
        "memory mismatch: ledger holds {} B, served tasks re-derive {} B",
        obs::json_double(ledger.memory_used_bytes()),
        obs::json_double(derived.memory_bytes));
  if (derived.rbs != ledger.rbs_used())
    return util::fmt(
        "RB mismatch: ledger holds {}, served tasks re-derive {}",
        ledger.rbs_used(), derived.rbs);
  if (derived.deployed_blocks != controller.deployed_blocks())
    return util::fmt(
        "deployed-block mismatch: controller has {} blocks, served tasks "
        "re-derive {}",
        controller.deployed_blocks().size(), derived.deployed_blocks.size());
  return std::nullopt;
}

}  // namespace odn::sched
