// LruMap + PlanCache unit suite: recency/eviction order, overwrite
// semantics, local-stats/obs-metrics agreement, and the determinism
// property that cache capacity never changes what a controller returns —
// only how fast (eviction pressure at capacity 1 vs unbounded-for-the-run
// capacity must produce byte-identical plans).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/lru_map.h"
#include "core/plan_cache.h"
#include "obs/metrics.h"
#include "solver_equivalence.h"

namespace odn::core {
namespace {

TEST(LruMap, RejectsZeroCapacity) {
  EXPECT_THROW(LruMap<int>(0), std::invalid_argument);
}

TEST(LruMap, EvictsLeastRecentlyUsedInOrder) {
  LruMap<int> map(3);
  map.insert("a", 1);
  map.insert("b", 2);
  map.insert("c", 3);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.mru_key(), "c");
  EXPECT_EQ(map.lru_key(), "a");

  // Touching "a" promotes it; "b" becomes the eviction victim.
  ASSERT_NE(map.find("a"), nullptr);
  EXPECT_EQ(map.mru_key(), "a");
  EXPECT_EQ(map.lru_key(), "b");

  map.insert("d", 4);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.evictions(), 1u);
  EXPECT_EQ(map.find("b"), nullptr) << "LRU entry survived";
  EXPECT_NE(map.find("a"), nullptr);
  EXPECT_NE(map.find("c"), nullptr);
  EXPECT_NE(map.find("d"), nullptr);
}

TEST(LruMap, OverwriteUpdatesInPlaceWithoutEviction) {
  LruMap<int> map(2);
  map.insert("a", 1);
  map.insert("b", 2);
  map.insert("a", 10);  // overwrite, not a new entry
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.evictions(), 0u);
  EXPECT_EQ(*map.find("a"), 10);
  EXPECT_EQ(map.mru_key(), "a");
}

TEST(LruMap, FindPromotesSurvivorsUnderPressure) {
  LruMap<int> map(2);
  map.insert("hot", 1);
  map.insert("cold1", 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(map.find("hot"), nullptr) << "round " << i;
    map.insert("cold" + std::to_string(i + 2), i);
  }
  // "hot" survived ten eviction rounds because every round re-touched it.
  EXPECT_NE(map.find("hot"), nullptr);
  EXPECT_EQ(map.evictions(), 10u);
}

TEST(LruMap, EmptyKeyAccessorsThrow) {
  LruMap<int> map(2);
  EXPECT_THROW(map.mru_key(), std::logic_error);
  EXPECT_THROW(map.lru_key(), std::logic_error);
}

DeploymentPlan make_plan(const std::string& name) {
  DeploymentPlan plan;
  plan.solution.solver_name = name;
  plan.tasks.push_back(TaskPlan{name, true, 1.0, 2.0, 3, {0, 1}, 0.1, 0.2,
                                0.9, 0.05, 1e5});
  return plan;
}

// Local stats and the global obs counters must move in lockstep: the
// exported odn_plan_cache_* totals are deltas of exactly these events.
TEST(PlanCache, StatsMatchObsCounterDeltas) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t hits0 =
      registry.counter("odn_plan_cache_hits_total").value();
  const std::uint64_t misses0 =
      registry.counter("odn_plan_cache_misses_total").value();
  const std::uint64_t insertions0 =
      registry.counter("odn_plan_cache_insertions_total").value();
  const std::uint64_t evictions0 =
      registry.counter("odn_plan_cache_evictions_total").value();

  PlanCache cache(2);
  EXPECT_EQ(cache.find("k1"), nullptr);           // miss
  cache.insert("k1", make_plan("p1"));            // insertion
  EXPECT_NE(cache.find("k1"), nullptr);           // hit
  cache.insert("k2", make_plan("p2"));            // insertion
  cache.insert("k3", make_plan("p3"));            // insertion + eviction
  EXPECT_EQ(cache.find("k1"), nullptr);           // miss (evicted)

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.capacity(), 2u);

  EXPECT_EQ(registry.counter("odn_plan_cache_hits_total").value() - hits0,
            stats.hits);
  EXPECT_EQ(
      registry.counter("odn_plan_cache_misses_total").value() - misses0,
      stats.misses);
  EXPECT_EQ(registry.counter("odn_plan_cache_insertions_total").value() -
                insertions0,
            stats.insertions);
  EXPECT_EQ(registry.counter("odn_plan_cache_evictions_total").value() -
                evictions0,
            stats.evictions);
}

TEST(PlanCache, StoresPlansByValue) {
  PlanCache cache(4);
  cache.insert("k", make_plan("stored"));
  const DeploymentPlan* hit = cache.find("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(odn::testing::serialize_plan(*hit),
            odn::testing::serialize_plan(make_plan("stored")));
}

// Eviction pressure never changes bytes: a controller with a capacity-1
// plan cache (evicting on almost every insert) must emit exactly the
// transcript of one with room for the whole run. Capacity changes only
// hit rates, never results.
TEST(PlanCache, EvictionPressureDoesNotChangePlans) {
  const DotInstance world = testing::random_instance(21);
  const auto transcript = [&](std::size_t capacity) {
    OffloadnnController::Options options;
    options.alpha = world.alpha;
    options.cache.plan_capacity = capacity;
    options.cache.solver.clique_capacity = capacity;
    OffloadnnController controller(world.resources, world.radio, options);
    std::string log;
    for (std::size_t step = 0; step < 40; ++step) {
      DotTask task = world.tasks[step % world.tasks.size()];
      task.spec.name = "t" + std::to_string(step);
      log += odn::testing::serialize_plan(
          controller.probe_incremental(world.catalog, {task}));
      log += odn::testing::serialize_plan(
          controller.admit_incremental(world.catalog, {task}));
      if (step % 4 == 3) controller.release("t" + std::to_string(step));
    }
    return log;
  };
  const std::string tiny = transcript(1);
  EXPECT_EQ(transcript(4096), tiny);
}

}  // namespace
}  // namespace odn::core
