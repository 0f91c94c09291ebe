// Remnant of the plan cache, which was removed (DESIGN.md §8): probes and
// admissions always solve cold, and a cost_probe admission commits the
// plan its own probe solved. It exists only because the benchmark driver
// (perfbench/bench.cpp) still compiles against these names; nothing
// creates a PlanCache, the plan_cache() accessors always return nullptr,
// and stats() reads zeros. It goes with the next change to the benchmark.
#pragma once

#include <cstdint>

namespace odn::core {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class PlanCache {
 public:
  PlanCacheStats stats() const noexcept { return {}; }
};

}  // namespace odn::core
