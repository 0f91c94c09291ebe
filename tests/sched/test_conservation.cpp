// No-orphaned-resources check (sched/conservation.h): every kind of
// violation is reported, through both entry points — the borrowed
// ServedTask book the serving engine passes and the owned-name adapter
// perfbench and the test helpers call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/scenarios.h"
#include "sched/conservation.h"

namespace odn::sched {
namespace {

// The caller's book, owned: what the controller serves as the caller
// believes it, and the catalog it re-derives memory from.
struct Book {
  std::vector<std::string> names;
  std::vector<core::TaskPlan> plans;
  edge::DnnCatalog catalog;
};

std::optional<std::string> check_borrowed(
    const core::OffloadnnController& controller, const Book& book) {
  std::vector<ServedTask> served;
  for (std::size_t i = 0; i < book.names.size(); ++i)
    served.push_back(ServedTask{book.names[i], &book.plans[i]});
  return find_orphaned_resources(controller, served, book.catalog);
}

std::optional<std::string> check_owned(
    const core::OffloadnnController& controller, const Book& book) {
  std::vector<std::pair<std::string, const core::TaskPlan*>> served;
  for (std::size_t i = 0; i < book.names.size(); ++i)
    served.emplace_back(book.names[i], &book.plans[i]);
  return find_orphaned_resources(controller, served, book.catalog);
}

using Check = std::optional<std::string> (*)(
    const core::OffloadnnController&, const Book&);
const std::pair<const char*, Check> kEntryPoints[] = {
    {"borrowed", &check_borrowed}, {"owned", &check_owned}};

class ConservationTest : public ::testing::Test {
 protected:
  ConservationTest()
      : instance_(core::make_small_scenario(5)),
        controller_(instance_.resources, instance_.radio) {
    // Serve the tasks one admission at a time, as the engine does, and
    // book each admitted one under its committed plan, newest first: the
    // check must pair the book with the controller's order by name.
    book_.catalog = instance_.catalog;
    for (const core::DotTask& task : instance_.tasks) {
      const core::DeploymentPlan plan = controller_.admit_incremental(
          instance_.catalog, core::single_request(task));
      if (!plan.tasks[0].admitted) continue;
      book_.names.insert(book_.names.begin(), task.spec.name);
      book_.plans.insert(book_.plans.begin(), plan.tasks[0]);
    }
  }

  core::DotInstance instance_;
  core::OffloadnnController controller_;
  Book book_;
};

TEST_F(ConservationTest, TheExactBookBalances) {
  ASSERT_GE(book_.names.size(), 3u);
  for (const auto& [entry, check] : kEntryPoints) {
    SCOPED_TRACE(entry);
    const std::optional<std::string> violation = check(controller_, book_);
    EXPECT_FALSE(violation.has_value()) << *violation;
  }
}

TEST_F(ConservationTest, EveryViolationIsCaught) {
  ASSERT_GE(book_.names.size(), 3u);
  // A catalog block no served plan uses, with memory to count.
  edge::BlockIndex unused = 0;
  const std::vector<edge::BlockIndex>& deployed = controller_.deployed_blocks();
  while (unused < instance_.catalog.block_count() &&
         (std::find(deployed.begin(), deployed.end(), unused) !=
              deployed.end() ||
          instance_.catalog.block(unused).memory_bytes <= 0.0))
    ++unused;
  ASSERT_LT(unused, instance_.catalog.block_count());

  struct Violation {
    const char* name;
    const char* reported;  // a phrase of the expected violation message
    std::function<void(Book&)> corrupt;
  };
  const std::vector<Violation> violations = {
      {"a name served twice", "served twice in the caller's book",
       [](Book& b) {
         b.names.push_back(b.names[1]);
         b.plans.push_back(b.plans[1]);
       }},
      {"a count mismatch", "tasks but the caller's book has",
       [](Book& b) {
         b.names.pop_back();
         b.plans.pop_back();
       }},
      {"an unknown name", "the caller's book does not",
       [](Book& b) { b.names[1] = "ghost"; }},
      {"compute off by one ulp", "compute mismatch",
       [](Book& b) {
         // Every rate one ulp high: one term's ulp alone can round away
         // in the sum, in the ledger's as in the re-derivation.
         for (core::TaskPlan& plan : b.plans)
           plan.admitted_rate = std::nextafter(
               plan.admitted_rate, std::numeric_limits<double>::infinity());
       }},
      {"memory off by an extra block", "memory mismatch",
       [&](Book& b) { b.plans[0].blocks.push_back(unused); }},
      {"RBs off by slice_rbs + 1", "RB mismatch",
       [](Book& b) { b.plans[0].slice_rbs += b.plans[0].slice_rbs + 1; }},
      {"deployed blocks that differ", "deployed-block mismatch",
       [](Book& b) {
         // A block without memory: compute, memory and RBs all balance,
         // only the deployed set differs.
         edge::CatalogBlock free_block;
         free_block.name = "free";
         b.plans[0].blocks.push_back(b.catalog.add_block(free_block));
       }},
  };
  // The RB case must move the ceiling: z * (r + 1) >= 1 RB.
  ASSERT_GE(book_.plans[0].admission_ratio *
                static_cast<double>(book_.plans[0].slice_rbs + 1),
            1.0);

  for (const Violation& v : violations) {
    SCOPED_TRACE(v.name);
    Book corrupted = book_;
    v.corrupt(corrupted);
    for (const auto& [entry, check] : kEntryPoints) {
      SCOPED_TRACE(entry);
      const std::optional<std::string> violation =
          check(controller_, corrupted);
      ASSERT_TRUE(violation.has_value());
      EXPECT_NE(violation->find(v.reported), std::string::npos)
          << *violation;
    }
  }
}

}  // namespace
}  // namespace odn::sched
