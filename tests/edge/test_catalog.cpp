#include "edge/dnn_catalog.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace odn::edge {
namespace {

DnnCatalog sample_catalog() {
  DnnCatalog catalog;
  catalog.add_block({"shared-1", BlockKind::kSharedBase, 1.0e-3, 10e6, 0.0});
  catalog.add_block({"shared-2", BlockKind::kSharedBase, 2.0e-3, 20e6, 0.0});
  catalog.add_block({"ft-3", BlockKind::kFineTuned, 3.0e-3, 30e6, 50.0});
  catalog.add_block({"pruned-4", BlockKind::kPruned, 1.0e-3, 8e6, 60.0});
  return catalog;
}

TEST(DnnCatalog, AddAndLookup) {
  DnnCatalog catalog;
  const BlockIndex index =
      catalog.add_block({"b", BlockKind::kSharedBase, 1e-3, 1e6, 0.0});
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(catalog.block_count(), 1u);
  EXPECT_EQ(catalog.block(index).name, "b");
}

TEST(DnnCatalog, BadIndexThrows) {
  const DnnCatalog catalog;
  EXPECT_THROW(catalog.block(0), std::out_of_range);
}

TEST(DnnCatalog, CopySharesTheBlockTable) {
  const DnnCatalog original = sample_catalog();
  const DnnCatalog copy = original;
  EXPECT_EQ(&copy.blocks(), &original.blocks());
  EXPECT_EQ(copy.block_count(), original.block_count());
}

// Field-by-field image of a catalog, doubles as bit patterns.
std::vector<std::uint64_t> catalog_bits(const DnnCatalog& catalog) {
  std::vector<std::uint64_t> bits;
  for (const CatalogBlock& block : catalog.blocks()) {
    bits.push_back(std::hash<std::string>{}(block.name));
    bits.push_back(static_cast<std::uint64_t>(block.kind));
    bits.push_back(std::bit_cast<std::uint64_t>(block.inference_time_s));
    bits.push_back(std::bit_cast<std::uint64_t>(block.memory_bytes));
    bits.push_back(std::bit_cast<std::uint64_t>(block.training_cost_s));
    bits.push_back(static_cast<std::uint64_t>(block.architecture));
  }
  return bits;
}

TEST(DnnCatalog, AddBlockOnACopyLeavesTheOriginal) {
  const DnnCatalog original = sample_catalog();
  const std::vector<std::uint64_t> before = catalog_bits(original);
  DnnCatalog copy = original;
  EXPECT_EQ(copy.add_block({"extra", BlockKind::kFineTuned, 4e-3, 5e6, 7.0}),
            4u);
  EXPECT_EQ(original.block_count(), 4u);
  EXPECT_EQ(catalog_bits(original), before);
  EXPECT_EQ(copy.block_count(), 5u);
  EXPECT_NE(&copy.blocks(), &original.blocks());

  // And the other way round: extending the source leaves its copy alone.
  DnnCatalog source = sample_catalog();
  const DnnCatalog snapshot = source;
  source.add_block({"late", BlockKind::kPruned, 1e-3, 2e6, 3.0});
  EXPECT_EQ(snapshot.block_count(), 4u);
  EXPECT_EQ(catalog_bits(snapshot), before);
}

TEST(DnnCatalog, NegativeCostsRejected) {
  DnnCatalog catalog;
  EXPECT_THROW(
      catalog.add_block({"x", BlockKind::kSharedBase, -1.0, 1e6, 0.0}),
      std::invalid_argument);
  EXPECT_THROW(
      catalog.add_block({"x", BlockKind::kSharedBase, 1.0, -1e6, 0.0}),
      std::invalid_argument);
  EXPECT_THROW(
      catalog.add_block({"x", BlockKind::kSharedBase, 1.0, 1e6, -1.0}),
      std::invalid_argument);
}

// NaN fails every comparison, so a `< 0` check lets it (and +inf) through
// to the solver. Every cost field must reject all three non-finite values,
// with a message naming the block and the field.
TEST(DnnCatalog, NonFiniteCostsRejected) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  struct Field {
    const char* name;
    double CatalogBlock::*member;
  };
  for (const Field field : {Field{"inference_time_s",
                                  &CatalogBlock::inference_time_s},
                            Field{"memory_bytes", &CatalogBlock::memory_bytes},
                            Field{"training_cost_s",
                                  &CatalogBlock::training_cost_s}}) {
    for (const double bad : {kNan, kInf, -kInf}) {
      SCOPED_TRACE(::testing::Message() << field.name << " = " << bad);
      DnnCatalog catalog;
      CatalogBlock block{"odd-block", BlockKind::kSharedBase, 1e-3, 1e6, 1.0};
      block.*field.member = bad;
      try {
        catalog.add_block(block);
        ADD_FAILURE() << "add_block accepted a non-finite cost";
      } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("odd-block"), std::string::npos) << message;
        EXPECT_NE(message.find(field.name), std::string::npos) << message;
      }
      EXPECT_EQ(catalog.block_count(), 0u);
    }
  }
}

TEST(DnnCatalog, NonFiniteAccuracyRejected) {
  const DnnCatalog catalog = sample_catalog();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(::testing::Message() << "accuracy = " << bad);
    const DnnPath path{"odd-path", {0, 1}, bad};
    try {
      catalog.validate_path(path);
      ADD_FAILURE() << "validate_path accepted a non-finite accuracy";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("odd-path"), std::string::npos) << message;
      EXPECT_NE(message.find("accuracy"), std::string::npos) << message;
    }
  }
}

TEST(DnnCatalog, PathInferenceTimeSumsAllBlocks) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath path{"p", {0, 1, 2, 3}, 0.9};
  EXPECT_NEAR(catalog.path_inference_time_s(path), 7.0e-3, 1e-12);
}

TEST(DnnCatalog, PathMemoryCountsDistinctBlocksOnce) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath path{"p", {0, 0, 1}, 0.8};  // block 0 referenced twice
  EXPECT_NEAR(catalog.path_memory_bytes(path), 30e6, 1.0);
}

TEST(DnnCatalog, PathTrainingCostCountsDistinctBlocksOnce) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath path{"p", {2, 3, 3}, 0.8};
  EXPECT_NEAR(catalog.path_training_cost_s(path), 110.0, 1e-9);
}

TEST(DnnCatalog, SharedBlocksCostNothingToTrain) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath path{"p", {0, 1}, 0.7};
  EXPECT_DOUBLE_EQ(catalog.path_training_cost_s(path), 0.0);
}

TEST(DnnCatalog, ValidatePathChecksBlocksAndAccuracy) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath empty{"e", {}, 0.5};
  EXPECT_THROW(catalog.validate_path(empty), std::invalid_argument);
  DnnPath bad_block{"b", {99}, 0.5};
  EXPECT_THROW(catalog.validate_path(bad_block), std::out_of_range);
  DnnPath bad_accuracy{"a", {0}, 1.5};
  EXPECT_THROW(catalog.validate_path(bad_accuracy), std::invalid_argument);
  DnnPath good{"g", {0, 1}, 0.9};
  EXPECT_NO_THROW(catalog.validate_path(good));
}

TEST(DnnPath, HelpersMatchCatalogMethods) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath path{"p", {1, 2}, 0.8};
  EXPECT_DOUBLE_EQ(path.inference_time_s(catalog.blocks()),
                   catalog.path_inference_time_s(path));
  EXPECT_DOUBLE_EQ(path.unique_memory_bytes(catalog.blocks()),
                   catalog.path_memory_bytes(path));
}

}  // namespace
}  // namespace odn::edge
