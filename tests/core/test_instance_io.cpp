#include "core/instance_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/offloadnn_solver.h"
#include "core/scenarios.h"
#include "test_instances.h"

namespace odn::core {
namespace {

void expect_instances_equal(const DotInstance& a, const DotInstance& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_DOUBLE_EQ(a.alpha, b.alpha);
  EXPECT_DOUBLE_EQ(a.resources.compute_capacity_s,
                   b.resources.compute_capacity_s);
  EXPECT_DOUBLE_EQ(a.resources.memory_capacity_bytes,
                   b.resources.memory_capacity_bytes);
  EXPECT_EQ(a.resources.total_rbs, b.resources.total_rbs);
  ASSERT_EQ(a.catalog.block_count(), b.catalog.block_count());
  for (std::size_t i = 0; i < a.catalog.block_count(); ++i) {
    const auto& block_a = a.catalog.block(static_cast<edge::BlockIndex>(i));
    const auto& block_b = b.catalog.block(static_cast<edge::BlockIndex>(i));
    EXPECT_EQ(block_a.name, block_b.name);
    EXPECT_EQ(block_a.kind, block_b.kind);
    EXPECT_DOUBLE_EQ(block_a.inference_time_s, block_b.inference_time_s);
    EXPECT_DOUBLE_EQ(block_a.memory_bytes, block_b.memory_bytes);
    EXPECT_DOUBLE_EQ(block_a.training_cost_s, block_b.training_cost_s);
  }
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    const DotTask& task_a = a.tasks[t];
    const DotTask& task_b = b.tasks[t];
    EXPECT_EQ(task_a.spec.name, task_b.spec.name);
    EXPECT_DOUBLE_EQ(task_a.spec.priority, task_b.spec.priority);
    EXPECT_DOUBLE_EQ(task_a.spec.request_rate, task_b.spec.request_rate);
    ASSERT_EQ(task_a.options.size(), task_b.options.size());
    for (std::size_t o = 0; o < task_a.options.size(); ++o) {
      EXPECT_EQ(task_a.options[o].path.blocks,
                task_b.options[o].path.blocks);
      EXPECT_DOUBLE_EQ(task_a.options[o].path.accuracy,
                       task_b.options[o].path.accuracy);
      EXPECT_EQ(task_a.options[o].quality_index,
                task_b.options[o].quality_index);
    }
  }
}

TEST(InstanceIo, RoundTripHandCraftedInstance) {
  const DotInstance original = testing::two_task_instance();
  std::stringstream buffer;
  write_instance(original, buffer);
  const DotInstance restored = read_instance(buffer);
  expect_instances_equal(original, restored);
  EXPECT_TRUE(restored.finalized());

  // Signed zero and the largest finite magnitudes survive exactly.
  DotInstance instance = original;
  instance.resources.memory_capacity_bytes = 1e308;
  instance.tasks[0].spec.snr_db = -0.0;
  instance.finalize();
  std::stringstream first;
  write_instance(instance, first);
  EXPECT_NE(first.str().find("resources 1 100 1e+308 20\n"),
            std::string::npos);
  const DotInstance wide = read_instance(first);
  EXPECT_EQ(wide.resources.memory_capacity_bytes, 1e308);
  EXPECT_TRUE(std::signbit(wide.tasks[0].spec.snr_db));
  std::stringstream second;
  write_instance(wide, second);
  EXPECT_EQ(second.str(), first.str());
}

TEST(InstanceIo, RoundTripSmallScenario) {
  const DotInstance original = make_small_scenario(5);
  std::stringstream buffer;
  write_instance(original, buffer);
  const DotInstance restored = read_instance(buffer);
  expect_instances_equal(original, restored);
}

TEST(InstanceIo, RoundTripLargeScenario) {
  const DotInstance original =
      make_large_scenario(RequestRate::kHigh);
  std::stringstream buffer;
  write_instance(original, buffer);
  const DotInstance restored = read_instance(buffer);
  expect_instances_equal(original, restored);
}

TEST(InstanceIo, SolverAgreesOnRestoredInstance) {
  // The real invariant: solving the restored instance yields the exact
  // same decisions as solving the original.
  const DotInstance original =
      make_large_scenario(RequestRate::kMedium);
  std::stringstream buffer;
  write_instance(original, buffer);
  const DotInstance restored = read_instance(buffer);

  const DotSolution a = OffloadnnSolver{}.solve(original);
  const DotSolution b = OffloadnnSolver{}.solve(restored);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t t = 0; t < a.decisions.size(); ++t) {
    EXPECT_EQ(a.decisions[t].option_index, b.decisions[t].option_index);
    EXPECT_NEAR(a.decisions[t].admission_ratio,
                b.decisions[t].admission_ratio, 1e-12);
    EXPECT_EQ(a.decisions[t].rbs, b.decisions[t].rbs);
  }
}

TEST(InstanceIo, NamesWithSpacesSurvive) {
  DotInstance instance = testing::two_task_instance();
  instance.name = "an instance with spaces";
  instance.tasks[0].spec.name = "task with spaces";
  instance.finalize();
  std::stringstream buffer;
  write_instance(instance, buffer);
  const DotInstance restored = read_instance(buffer);
  EXPECT_EQ(restored.name, "an instance with spaces");
  EXPECT_EQ(restored.tasks[0].spec.name, "task with spaces");
}

TEST(InstanceIo, LteRadioModeRoundTrips) {
  DotInstance instance = testing::two_task_instance();
  instance.radio = edge::RadioModel::lte();
  instance.finalize();
  std::stringstream buffer;
  write_instance(instance, buffer);
  const DotInstance restored = read_instance(buffer);
  EXPECT_FALSE(restored.radio.is_fixed_mode());
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
  const DotInstance original = testing::two_task_instance();
  std::stringstream buffer;
  write_instance(original, buffer);
  std::string text = buffer.str();
  text.insert(text.find('\n') + 1, "# a comment\n\n");
  std::stringstream patched(text);
  EXPECT_NO_THROW(read_instance(patched));
}

TEST(InstanceIo, BadHeaderThrows) {
  std::stringstream buffer("WRONG-HEADER\n");
  EXPECT_THROW(read_instance(buffer), std::runtime_error);
}

TEST(InstanceIo, TruncatedInputThrows) {
  const DotInstance original = testing::two_task_instance();
  std::stringstream buffer;
  write_instance(original, buffer);
  const std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() * 2 / 3));
  EXPECT_THROW(read_instance(truncated), std::runtime_error);
}

TEST(InstanceIo, MalformedRecordReportsLineNumber) {
  std::stringstream buffer(
      "ODN-INSTANCE 1\nname x\nalpha not-a-number\n");
  try {
    read_instance(buffer);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }

  // Unparsable, non-finite, out-of-range and +-prefixed numbers, signed or
  // oversized counts, trailing tokens, records past the declared count and
  // values the instance's own validation rejects all fail with the
  // offending line.
  std::stringstream written;
  write_instance(testing::two_task_instance(), written);
  const std::string base = written.str();
  const std::vector<std::pair<std::string, std::string>> defects = {
      {"alpha 0.5", "alpha abc"},
      {"alpha 0.5", "alpha nan"},
      {"alpha 0.5", "alpha inf"},
      {"alpha 0.5", "alpha 1e400"},
      {"alpha 0.5", "alpha +0.5"},
      {"alpha 0.5", "alpha 7"},
      {"blocks 5", "blocks -1"},
      {"tasks 2", "tasks 99999999999999"},
      {"resources 1 100 100000000 20", "resources 1 100 100000000 -20"},
      {"1 2 task-hi", "1 18446744073709551616 task-hi"},
      {"alpha 0.5", "alpha 0.5 0.5"},
      {"lo-ft\n", "lo-ft\nblock 0 0.01 1 0 extra\n"},
      {"radio fixed 100000", "radio fixed -5"},
      {"block 0 0.01 10000000 0", "block 0 0.01 -1 0"},
      {"3 0 1 3 hi-pruned", "3 0 1 9 hi-pruned"},
  };
  for (const auto& [from, to] : defects) {
    std::string text = base;
    ASSERT_NE(text.find(from), std::string::npos) << from;
    text.replace(text.find(from), from.size(), to);
    std::stringstream in(text);
    try {
      read_instance(in);
      ADD_FAILURE() << "accepted '" << to << "'";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("read_instance: line "),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(InstanceIo, MissingFileThrows) {
  EXPECT_THROW(read_instance_file("/nonexistent/instance.txt"),
               std::runtime_error);
}

TEST(InstanceIo, FileRoundTrip) {
  const DotInstance original = make_small_scenario(2);
  const std::string path = ::testing::TempDir() + "/odn_instance.txt";
  write_instance(original, path);
  const DotInstance restored = read_instance_file(path);
  expect_instances_equal(original, restored);
}

}  // namespace
}  // namespace odn::core
