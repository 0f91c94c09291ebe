#include "core/solver_cache.h"

#include "obs/metrics.h"

namespace odn::core {
namespace {

// Memo accounting. Lookup/insert sites run on serial sections with
// thread-count-invariant execution counts (tree construction consults the
// memo outside any parallel fan-out), so these totals snapshot identically
// for any ODN_THREADS.
struct SolverCacheMetrics {
  obs::Counter& clique_hits;
  obs::Counter& clique_misses;
  obs::Counter& evictions;

  static SolverCacheMetrics& instance() {
    static obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static SolverCacheMetrics metrics{
        registry.counter("odn_solver_cache_clique_hits_total"),
        registry.counter("odn_solver_cache_clique_misses_total"),
        registry.counter("odn_solver_cache_evictions_total")};
    return metrics;
  }
};

}  // namespace

SolverCache::SolverCache() : SolverCache(Options{}) {}

SolverCache::SolverCache(Options options)
    : cliques_(options.clique_capacity) {}

const SolverCache::CliqueEntry* SolverCache::find_clique(
    std::string_view key) {
  const CliqueEntry* hit = cliques_.find(key);
  SolverCacheMetrics& metrics = SolverCacheMetrics::instance();
  if (hit != nullptr) {
    ++stats_.clique_hits;
    metrics.clique_hits.inc();
  } else {
    ++stats_.clique_misses;
    metrics.clique_misses.inc();
  }
  return hit;
}

void SolverCache::insert_clique(std::string key, CliqueEntry entry) {
  const std::uint64_t before = cliques_.evictions();
  cliques_.insert(std::move(key), std::move(entry));
  const std::uint64_t evicted = cliques_.evictions() - before;
  stats_.evictions += evicted;
  if (evicted > 0) SolverCacheMetrics::instance().evictions.inc(evicted);
}

SolverCacheStats SolverCache::stats() const noexcept { return stats_; }

void SolverCache::clear() { cliques_.clear(); }

}  // namespace odn::core
