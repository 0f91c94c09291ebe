// No-orphaned-resources conservation check.
//
// After any preempt/downgrade/readmit sequence, the controller's ledger and
// deployed-block set must re-derive *exactly* (bit-for-bit, not within a
// tolerance) from the plans of the currently-served tasks: the derivation
// below replays the same sums, in the same (active-task insertion) order,
// with the same values as OffloadnnController::rebuild_ledger — so any
// difference means a commitment leaked (an evicted task still holds
// resources) or went missing (a served task lost its backing commitment).
//
// Runtimes self-check this after every ladder application and at epoch
// boundaries when scheduling is enabled; tests/core/invariant_check.h wraps
// it in gtest assertions for the test suites.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "edge/dnn_catalog.h"

namespace odn::sched {

// What rebuild_ledger would commit for `plans` (in active-task order).
struct DerivedCommitment {
  double compute_s = 0.0;
  double memory_bytes = 0.0;
  double shared_rbs = 0.0;
  std::size_t rbs = 0;
  std::vector<edge::BlockIndex> deployed_blocks;
};

DerivedCommitment derive_commitment(
    const std::vector<const core::TaskPlan*>& plans,
    const edge::DnnCatalog& catalog);

// One entry of the caller's book: a served task's name, borrowed from the
// caller, and its committed plan.
struct ServedTask {
  std::string_view name;
  const core::TaskPlan* plan = nullptr;
};

// Checks `controller` against the caller's book of served tasks. Returns a
// description of the first violation, or nullopt when every resource
// re-derives exactly. The book is matched by sorting it by name in place,
// so `served` comes back reordered.
std::optional<std::string> find_orphaned_resources(
    const core::OffloadnnController& controller,
    std::vector<ServedTask>& served, const edge::DnnCatalog& catalog);

// The same check over a book of owned names; it copies the book into
// ServedTask entries. perfbench and the test helpers call it.
std::optional<std::string> find_orphaned_resources(
    const core::OffloadnnController& controller,
    const std::vector<std::pair<std::string, const core::TaskPlan*>>& served,
    const edge::DnnCatalog& catalog);

}  // namespace odn::sched
