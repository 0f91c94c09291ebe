// FaultPlan: generator determinism, validation of the per-(cell, class)
// alternation discipline, and the exact write/read round-trip of the
// ODN-FAULTS text format.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"

namespace odn::fault {
namespace {

FaultPlan tiny_plan() {
  FaultPlan plan;
  plan.name = "tiny";
  plan.horizon_s = 40.0;
  plan.cell_count = 2;
  plan.events = {
      {5.0, FaultEventKind::kCellCrash, 0, 1.0},
      {9.25, FaultEventKind::kRadioDegrade, 1, 0.4375},
      {12.0, FaultEventKind::kCellRecover, 0, 1.0},
      {20.0, FaultEventKind::kRadioRestore, 1, 1.0},
      {22.5, FaultEventKind::kLatencyInflate, 0, 2.5},
      {30.0, FaultEventKind::kBudgetExhaust, 1, 1.0},
  };
  return plan;
}

TEST(FaultPlan, EmptyPlanValidates) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, WellFormedPlanValidates) {
  EXPECT_NO_THROW(tiny_plan().validate());
}

TEST(FaultPlan, RejectsUnsortedEvents) {
  FaultPlan plan = tiny_plan();
  std::swap(plan.events[0], plan.events[2]);
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsOutOfRangeCell) {
  FaultPlan plan = tiny_plan();
  plan.events[0].cell = 2;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsEventBeyondHorizon) {
  FaultPlan plan = tiny_plan();
  plan.events.back().time_s = 41.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.events.back().time_s = std::nan("");
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsNonFiniteHorizon) {
  FaultPlan plan;  // no events: only the horizon check can fire
  plan.horizon_s = std::nan("");
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.horizon_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsRecoveryWithoutOnset) {
  FaultPlan plan;
  plan.horizon_s = 10.0;
  plan.cell_count = 1;
  plan.events = {{2.0, FaultEventKind::kCellRecover, 0, 1.0}};
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsDoubleOnsetOfSameClass) {
  FaultPlan plan;
  plan.horizon_s = 10.0;
  plan.cell_count = 1;
  plan.events = {{2.0, FaultEventKind::kCellCrash, 0, 1.0},
                 {4.0, FaultEventKind::kCellCrash, 0, 1.0}};
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, AllowsMissingRecoveryAtHorizon) {
  FaultPlan plan;
  plan.horizon_s = 10.0;
  plan.cell_count = 1;
  plan.events = {{8.0, FaultEventKind::kCellCrash, 0, 1.0}};
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, RejectsBadMagnitudes) {
  FaultPlan degrade;
  degrade.horizon_s = 10.0;
  degrade.events = {{1.0, FaultEventKind::kRadioDegrade, 0, 0.0}};
  EXPECT_THROW(degrade.validate(), std::invalid_argument);

  FaultPlan inflate;
  inflate.horizon_s = 10.0;
  inflate.events = {{1.0, FaultEventKind::kLatencyInflate, 0, 0.5}};
  EXPECT_THROW(inflate.validate(), std::invalid_argument);

  FaultPlan crash;
  crash.horizon_s = 10.0;
  crash.events = {{1.0, FaultEventKind::kCellCrash, 0, 2.0}};
  EXPECT_THROW(crash.validate(), std::invalid_argument);
}

TEST(FaultPlanGenerator, GeneratedPlansValidate) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlanOptions options;
    options.seed = seed;
    const FaultPlan plan = generate_fault_plan(3, options);
    SCOPED_TRACE(plan.name);
    EXPECT_NO_THROW(plan.validate());
    EXPECT_EQ(plan.cell_count, 3u);
  }
}

TEST(FaultPlanGenerator, RejectsBadOptions) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [field, value] :
       std::vector<std::pair<double FaultPlanOptions::*, double>>{
           {&FaultPlanOptions::horizon_s, nan},
           {&FaultPlanOptions::horizon_s, inf},
           {&FaultPlanOptions::mean_outage_s, nan},
           {&FaultPlanOptions::mean_degradation_s, inf},
           {&FaultPlanOptions::max_inflation, inf}}) {
    FaultPlanOptions options;
    options.*field = value;
    EXPECT_THROW(generate_fault_plan(2, options), std::invalid_argument)
        << value;
  }
  // A cell count whose (cell, class) index overflows.
  EXPECT_THROW(generate_fault_plan(std::size_t{1} << 62),
               std::invalid_argument);
  EXPECT_THROW(
      generate_fault_plan(std::numeric_limits<std::size_t>::max()),
      std::invalid_argument);
}

TEST(FaultPlanGenerator, DeterministicForEqualSeeds) {
  FaultPlanOptions options;
  options.seed = 99;
  const FaultPlan a = generate_fault_plan(4, options);
  const FaultPlan b = generate_fault_plan(4, options);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i)
    EXPECT_TRUE(a.events[i] == b.events[i]) << "event " << i;
}

TEST(FaultPlanGenerator, SeedsDiverge) {
  FaultPlanOptions a_options, b_options;
  a_options.seed = 1;
  b_options.seed = 2;
  const FaultPlan a = generate_fault_plan(4, a_options);
  const FaultPlan b = generate_fault_plan(4, b_options);
  bool differ = a.events.size() != b.events.size();
  for (std::size_t i = 0; !differ && i < a.events.size(); ++i)
    differ = !(a.events[i] == b.events[i]);
  EXPECT_TRUE(differ);
}

TEST(FaultPlanGenerator, CoversEveryFaultClassByDefault) {
  FaultPlanOptions options;
  options.seed = 7;
  const FaultPlan plan = generate_fault_plan(2, options);
  bool crash = false, radio = false, latency = false, budget = false;
  for (const FaultEvent& event : plan.events) {
    crash |= event.kind == FaultEventKind::kCellCrash;
    radio |= event.kind == FaultEventKind::kRadioDegrade;
    latency |= event.kind == FaultEventKind::kLatencyInflate;
    budget |= event.kind == FaultEventKind::kBudgetExhaust;
  }
  EXPECT_TRUE(crash);
  EXPECT_TRUE(radio);
  EXPECT_TRUE(latency);
  EXPECT_TRUE(budget);
}

TEST(FaultPlanIo, ExactRoundTrip) {
  const FaultPlan plan = tiny_plan();
  std::stringstream stream;
  write_fault_plan(plan, stream);
  const FaultPlan parsed = read_fault_plan(stream);

  EXPECT_EQ(parsed.name, plan.name);
  EXPECT_EQ(parsed.horizon_s, plan.horizon_s);
  EXPECT_EQ(parsed.cell_count, plan.cell_count);
  ASSERT_EQ(parsed.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    SCOPED_TRACE(i);
    // Bit-exact: times and magnitudes serialize with max_digits10.
    EXPECT_TRUE(parsed.events[i] == plan.events[i]);
  }

  // Signed zero and the largest finite magnitudes survive exactly.
  const std::string extremes =
      "ODN-FAULTS 1\nname x\nhorizon 1e+308\ncells 1\nevents 1\n"
      "event -0 latency_inflate 0 1e+308\n";
  std::stringstream in(extremes);
  const FaultPlan wide = read_fault_plan(in);
  EXPECT_TRUE(std::signbit(wide.events[0].time_s));
  EXPECT_EQ(wide.events[0].magnitude, 1e308);
  std::stringstream out;
  write_fault_plan(wide, out);
  EXPECT_EQ(out.str(), extremes);
}

TEST(FaultPlanIo, GeneratedPlanRoundTripsBitExactly) {
  FaultPlanOptions options;
  options.seed = 1234;
  const FaultPlan plan = generate_fault_plan(3, options);
  ASSERT_FALSE(plan.empty());

  std::stringstream first;
  write_fault_plan(plan, first);
  const FaultPlan parsed = read_fault_plan(first);
  std::stringstream second;
  write_fault_plan(parsed, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(FaultPlanIo, RejectsGarbage) {
  std::stringstream stream("not a fault plan\n");
  EXPECT_THROW(read_fault_plan(stream), std::runtime_error);

  // Unparsable, non-finite, out-of-range and +-prefixed numbers, signed or
  // oversized counts, trailing tokens and records past the declared count
  // all fail with the offending line.
  const std::string base =
      "ODN-FAULTS 1\nname x\nhorizon 30\ncells 4\nevents 1\n"
      "event 1 crash 1 1\n";
  const std::vector<std::pair<std::string, std::string>> defects = {
      {"horizon 30", "horizon abc"},
      {"horizon 30", "horizon nan"},
      {"horizon 30", "horizon inf"},
      {"horizon 30", "horizon 1e400"},
      {"crash 1 1", "crash 1 +1"},
      {"cells 4", "cells -1"},
      {"events 1", "events -1"},
      {"events 1", "events 99999999999999"},
      {"crash 1 1", "crash 18446744073709551616 1"},
      {"crash 1 1", "crash 1 nan"},
      {"cells 4", "cells 4 4"},
      {"crash 1 1\n", "crash 1 1\nevent 2 recover 1 1\n"},
      // validate() once indexed a cell_count * 4 table that had wrapped
      // to size zero here.
      {"cells 4\nevents 1\nevent 1 crash 1 1",
       "cells 4611686018427387904\nevents 1\nevent 1 crash 5 1"},
  };
  for (const auto& [from, to] : defects) {
    std::string text = base;
    text.replace(text.find(from), from.size(), to);
    std::stringstream in(text);
    try {
      read_fault_plan(in);
      ADD_FAILURE() << "accepted '" << to << "'";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("read_fault_plan: line "),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(FaultPlanIo, MissingFileThrows) {
  EXPECT_THROW(read_fault_plan_file("/nonexistent/faults.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace odn::fault
