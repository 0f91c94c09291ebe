// The edge DNN repository (Fig. 4): dynamic DNN structures d ∈ D, their
// blocks s^d ∈ S^d, and the paths π^d usable to execute tasks.
//
// A *block* is one or more DNN layers (here: a ResNet layer-block or the
// classifier head), possibly a pruned or fine-tuned variant. Blocks carry
// the experimentally characterized inference compute time c(s), memory
// footprint µ(s) and training cost ct(s). Blocks are identified by catalog
// index: two paths that reference the same index *share* the block, which
// is what makes memory count once and training cost amortize.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace odn::edge {

using BlockIndex = std::uint32_t;

enum class BlockKind : std::uint8_t {
  kSharedBase,   // pretrained, frozen, shareable; ct = 0
  kFineTuned,    // task/DNN-specific fine-tuned variant; ct > 0
  kPruned,       // fine-tuned then structurally pruned; ct > 0, smaller c/µ
  kClassifier,   // task-specific head
};

// Backbone family a block belongs to. Paths must be architecture-uniform:
// a transformer exit head cannot ride on ResNet trunk blocks. Memory
// sharing still works only through block-index identity, so the tag adds
// no sharing semantics — it gates path composition and lets scenarios
// assign architectures per task (the model-zoo extension).
enum class Architecture : std::uint8_t {
  kResNet,
  kTransformer,
};

const char* architecture_name(Architecture architecture);

struct CatalogBlock {
  std::string name;
  BlockKind kind = BlockKind::kSharedBase;
  double inference_time_s = 0.0;  // c(s): per-inference compute time
  double memory_bytes = 0.0;      // µ(s): resident memory when deployed
  double training_cost_s = 0.0;   // ct(s): one-off (fine-)tuning cost
  // Backbone family the block belongs to; paths never mix architectures.
  // Last member so positional aggregate initializers predating the field
  // keep meaning what they said (they default to kResNet).
  Architecture architecture = Architecture::kResNet;
};

// Whether position `i` of a block sequence holds the first occurrence of
// its block. Every "distinct blocks of a path" sum dedupes with this
// linear scan: a path holds a handful of blocks, and the sums must add
// each block at its first appearance, in path order, to stay bit-stable.
inline bool first_occurrence(const std::vector<BlockIndex>& blocks,
                             std::size_t i) {
  for (std::size_t j = 0; j < i; ++j)
    if (blocks[j] == blocks[i]) return false;
  return true;
}

// A path π on a DNN structure: the ordered block sequence executing one
// inference, with its experimentally measured accuracy at full input
// quality.
struct DnnPath {
  std::string name;
  std::vector<BlockIndex> blocks;  // four blocks per path in the paper
  double accuracy = 0.0;           // a(π) at full quality

  double inference_time_s(const std::vector<CatalogBlock>& blocks_table) const;
  double unique_memory_bytes(
      const std::vector<CatalogBlock>& blocks_table) const;
};

// The block table is shared, immutable storage: copying a catalog is O(1)
// and the copy reads the same blocks. add_block copies the table first
// when another catalog shares it, so a copy never changes its source.
// This is what lets every incremental probe's DotInstance hold the
// caller's catalog by value; the already-deployed blocks are marked
// beside it (DotInstance::deployed), never written into the table.
class DnnCatalog {
 public:
  BlockIndex add_block(CatalogBlock block);

  // Inline: every solver reads block costs through this in its inner loop.
  const CatalogBlock& block(BlockIndex index) const {
    const std::vector<CatalogBlock>& table = blocks();
    if (index >= table.size()) throw_bad_index(index);
    return table[index];
  }
  std::size_t block_count() const noexcept { return blocks().size(); }
  const std::vector<CatalogBlock>& blocks() const noexcept {
    return blocks_ != nullptr ? *blocks_ : empty_table();
  }

  // Sum of c(s) over a path's blocks.
  double path_inference_time_s(const DnnPath& path) const;
  // Sum of µ(s) over the path's *distinct* blocks.
  double path_memory_bytes(const DnnPath& path) const;
  // Sum of ct(s) over the path's distinct blocks.
  double path_training_cost_s(const DnnPath& path) const;

  // The single architecture every block of the path shares.
  Architecture path_architecture(const DnnPath& path) const;

  void validate_path(const DnnPath& path) const;

 private:
  [[noreturn]] void throw_bad_index(BlockIndex index) const;
  static const std::vector<CatalogBlock>& empty_table() noexcept;

  // Null until the first add_block.
  std::shared_ptr<std::vector<CatalogBlock>> blocks_;
};

}  // namespace odn::edge
