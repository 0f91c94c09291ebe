#include "sched/conservation.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"
#include "util/fmt.h"

namespace odn::sched {

DerivedCommitment derive_commitment(
    const std::vector<const core::TaskPlan*>& plans,
    const edge::DnnCatalog& catalog) {
  // Mirrors OffloadnnController::commit + rebuild_ledger term for term:
  // same per-task products, same accumulation order, same first-appearance
  // memory accounting — so equal inputs produce bit-identical sums.
  DerivedCommitment derived;
  // counted[b]: block b's memory is already in the sum.
  std::vector<char> counted(catalog.block_count(), 0);
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
    for (const edge::BlockIndex b : plan->blocks) {
      // block() checks b against the catalog before counted[b] reads it.
      const double memory_bytes = catalog.block(b).memory_bytes;
      if (counted[b]) continue;
      counted[b] = 1;
      derived.memory_bytes += memory_bytes;
      derived.deployed_blocks.push_back(b);
    }
  }
  std::sort(derived.deployed_blocks.begin(), derived.deployed_blocks.end());
  derived.rbs =
      static_cast<std::size_t>(std::ceil(derived.shared_rbs - 1e-9));
  return derived;
}

std::optional<std::string> find_orphaned_resources(
    const core::OffloadnnController& controller,
    std::vector<ServedTask>& served, const edge::DnnCatalog& catalog) {
  const auto by_name = [](const ServedTask& a, const ServedTask& b) {
    return a.name < b.name;
  };
  std::sort(served.begin(), served.end(), by_name);
  const auto twice = std::adjacent_find(
      served.begin(), served.end(),
      [](const ServedTask& a, const ServedTask& b) {
        return a.name == b.name;
      });
  if (twice != served.end())
    return util::fmt("task '{}' served twice in the caller's book",
                     twice->name);

  const std::vector<std::string_view> active = controller.active_names();
  if (active.size() != served.size())
    return util::fmt(
        "controller serves {} tasks but the caller's book has {}",
        active.size(), served.size());
  // Sizes match and both sides' names are unique, so finding every active
  // name in the book pairs them one to one. The plans follow the active
  // (insertion) order, which the derivation's sums must replay.
  std::vector<const core::TaskPlan*> plans;
  plans.reserve(active.size());
  for (const std::string_view name : active) {
    const auto it = std::lower_bound(served.begin(), served.end(),
                                     ServedTask{name, nullptr}, by_name);
    if (it == served.end() || it->name != name)
      return util::fmt(
          "controller serves task '{}' the caller's book does not", name);
    plans.push_back(it->plan);
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

std::optional<std::string> find_orphaned_resources(
    const core::OffloadnnController& controller,
    const std::vector<std::pair<std::string, const core::TaskPlan*>>& served,
    const edge::DnnCatalog& catalog) {
  std::vector<ServedTask> book;
  book.reserve(served.size());
  for (const auto& [name, plan] : served)
    book.push_back(ServedTask{name, plan});
  return find_orphaned_resources(controller, book, catalog);
}

}  // namespace odn::sched
