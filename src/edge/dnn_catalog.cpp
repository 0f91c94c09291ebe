#include "edge/dnn_catalog.h"

#include <cmath>
#include <stdexcept>

#include "util/fmt.h"

namespace odn::edge {
namespace {

// Written as what is allowed, so NaN (false under every comparison) and
// ±inf fail too: no non-finite cost may reach the solver.
void check_cost(const CatalogBlock& block, const char* field, double value) {
  if (!(std::isfinite(value) && value >= 0.0))
    throw std::invalid_argument(
        util::fmt("DnnCatalog: block '{}' {} {} is not a finite cost >= 0",
                  block.name, field, value));
}

}  // namespace

const char* architecture_name(Architecture architecture) {
  switch (architecture) {
    case Architecture::kResNet:
      return "resnet";
    case Architecture::kTransformer:
      return "transformer";
  }
  return "unknown";
}

double DnnPath::inference_time_s(
    const std::vector<CatalogBlock>& blocks_table) const {
  double total = 0.0;
  for (const BlockIndex b : blocks) total += blocks_table.at(b).inference_time_s;
  return total;
}

double DnnPath::unique_memory_bytes(
    const std::vector<CatalogBlock>& blocks_table) const {
  double total = 0.0;
  for (std::size_t i = 0; i < blocks.size(); ++i)
    if (first_occurrence(blocks, i))
      total += blocks_table.at(blocks[i]).memory_bytes;
  return total;
}

BlockIndex DnnCatalog::add_block(CatalogBlock block) {
  check_cost(block, "inference_time_s", block.inference_time_s);
  check_cost(block, "memory_bytes", block.memory_bytes);
  check_cost(block, "training_cost_s", block.training_cost_s);
  if (blocks_ == nullptr)
    blocks_ = std::make_shared<std::vector<CatalogBlock>>();
  else if (blocks_.use_count() > 1)
    blocks_ = std::make_shared<std::vector<CatalogBlock>>(*blocks_);
  blocks_->push_back(std::move(block));
  return static_cast<BlockIndex>(blocks_->size() - 1);
}

const std::vector<CatalogBlock>& DnnCatalog::empty_table() noexcept {
  static const std::vector<CatalogBlock> kEmpty;
  return kEmpty;
}

void DnnCatalog::throw_bad_index(BlockIndex index) const {
  throw std::out_of_range(util::fmt("DnnCatalog: block index {} out of {}",
                                    index, block_count()));
}

double DnnCatalog::path_inference_time_s(const DnnPath& path) const {
  return path.inference_time_s(blocks());
}

double DnnCatalog::path_memory_bytes(const DnnPath& path) const {
  return path.unique_memory_bytes(blocks());
}

double DnnCatalog::path_training_cost_s(const DnnPath& path) const {
  double total = 0.0;
  for (std::size_t i = 0; i < path.blocks.size(); ++i)
    if (first_occurrence(path.blocks, i))
      total += block(path.blocks[i]).training_cost_s;
  return total;
}

Architecture DnnCatalog::path_architecture(const DnnPath& path) const {
  if (path.blocks.empty())
    throw std::invalid_argument(
        util::fmt("DnnCatalog: path '{}' has no blocks", path.name));
  return block(path.blocks.front()).architecture;
}

void DnnCatalog::validate_path(const DnnPath& path) const {
  if (path.blocks.empty())
    throw std::invalid_argument(
        util::fmt("DnnCatalog: path '{}' has no blocks", path.name));
  for (const BlockIndex b : path.blocks) (void)block(b);
  const Architecture architecture = block(path.blocks.front()).architecture;
  for (const BlockIndex b : path.blocks) {
    if (block(b).architecture != architecture)
      throw std::invalid_argument(util::fmt(
          "DnnCatalog: path '{}' mixes architectures ({} block '{}' on a {} "
          "path)",
          path.name, architecture_name(block(b).architecture), block(b).name,
          architecture_name(architecture)));
  }
  if (!(path.accuracy >= 0.0 && path.accuracy <= 1.0))  // NaN fails too
    throw std::invalid_argument(
        util::fmt("DnnCatalog: path '{}' accuracy {} outside [0,1]",
                  path.name, path.accuracy));
}

}  // namespace odn::edge
