// Remnant of the clique memo, which was removed (DESIGN.md §8): no cache
// stands in front of the solvers. It exists only because the benchmark
// driver (perfbench/bench.cpp) still compiles against these names; nothing
// creates a SolverCache, OffloadnnController::solver_cache() always returns
// nullptr, and stats() reads zeros. It goes with the next change to the
// benchmark.
#pragma once

#include <cstdint>

namespace odn::core {

struct SolverCacheStats {
  std::uint64_t clique_hits = 0;
  std::uint64_t clique_misses = 0;
};

class SolverCache {
 public:
  SolverCacheStats stats() const noexcept { return {}; }
};

}  // namespace odn::core
