// Per-controller memoization inside the DOT solvers (DESIGN.md §8): the
// clique memo. A task's filtered-and-sorted clique depends only on the
// (catalog, task) encoding, not on the rest of the instance, so tree
// construction reuses cliques across epochs and across sibling instances
// (the stored vertices are task_index-free; the tree patches the index on
// reuse).
//
// Whole solves and per-branch (z, r) sub-solutions are not memoized here:
// every key they could hit on encodes the full instance, and the plan
// cache in front of the solver (core/plan_cache.h) already answers each
// such repeat before the solver runs.
//
// Keys are exact canonical encodings (core/fingerprint.h), except that the
// catalog component is compressed to the 128-bit digest of its exact
// encoding (a process works against a handful of catalogs; the
// differential suite hammers exactly this compression). The cache is owned
// by one controller and must only be touched from serial sections — tree
// construction looks cliques up before any parallel fan-out, which keeps
// hit/miss counts ODN_THREADS-invariant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/lru_map.h"
#include "core/tree.h"

namespace odn::core {

struct SolverCacheStats {
  std::uint64_t clique_hits = 0;
  std::uint64_t clique_misses = 0;
  std::uint64_t evictions = 0;
};

class SolverCache {
 public:
  struct Options {
    std::size_t clique_capacity = 4096;
  };

  SolverCache();
  explicit SolverCache(Options options);

  // One task's feasibility-filtered, invariant-sorted clique. Stored with
  // task_index unset (the same task can sit at different indices in
  // different instances); SolutionTree patches it on reuse.
  struct CliqueEntry {
    std::vector<TreeVertex> vertices;
    std::size_t filtered = 0;
  };
  const CliqueEntry* find_clique(std::string_view key);
  void insert_clique(std::string key, CliqueEntry entry);

  SolverCacheStats stats() const noexcept;
  void clear();

 private:
  LruMap<CliqueEntry> cliques_;
  SolverCacheStats stats_;
};

}  // namespace odn::core
