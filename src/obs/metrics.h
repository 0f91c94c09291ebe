// Metrics registry — the aggregate half of the observability layer.
//
// Named counters and fixed-bucket histograms, optionally labelled
// (e.g. {class="high"}), registered in a process-wide registry and
// exported as deterministic Prometheus text exposition. Metric names
// follow the repo scheme `odn_<subsystem>_<name>` (DESIGN.md §6).
//
// Determinism contract: export order is sorted by (name, label set), never
// registration order, and every accumulator is commutative — counters and
// histogram bucket counts are integer atomics, and the histogram sum
// accumulates in fixed-point micro-units so parallel increment
// interleavings cannot perturb the result. Metrics
// incremented only at sites whose execution count is thread-count
// invariant therefore snapshot byte-identically for any ODN_THREADS
// setting (asserted by tests/obs/test_obs_integration.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace odn::obs {

// Label set for one metric child, e.g. {{"class", "high"}}. Keys must be
// unique; the registry canonicalizes by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotone integer counter. Relaxed increments: integer addition commutes,
// so totals are deterministic for any interleaving.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Fixed-bucket histogram with Prometheus `le` semantics: bucket i counts
// observations <= bounds[i]; one implicit +Inf overflow bucket catches the
// rest (there is no separate underflow bucket — everything below bounds[0]
// lands in bucket 0, exactly like Prometheus). The sum accumulates in
// micro-units, so parallel observers cannot perturb it.
class Histogram {
 public:
  // `bounds` must be non-empty, finite and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  // Non-cumulative count of bucket `index`; index bounds_.size() is +Inf.
  std::uint64_t bucket(std::size_t index) const noexcept;
  std::size_t bucket_count() const noexcept { return bounds_.size() + 1; }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_micro_{0};
};

// Registry of metric families. Lookup returns a stable reference for the
// process lifetime; re-requesting the same (name, labels) returns the same
// object, and re-requesting a name with a different metric type (or a
// histogram with different bounds) throws std::invalid_argument.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {});

  std::size_t metric_count() const;

  // Zeroes every value, keeping the registrations (tests and bench reruns
  // compare snapshots across runs of the same process).
  void reset_values();

  // Prometheus text exposition format, sorted by (name, labels), with
  // label values escaped per the spec (backslash, quote, newline).
  void write_prometheus(std::ostream& out) const;
  std::string to_prometheus() const;

  // The process-wide registry every instrumentation site uses.
  static MetricsRegistry& global();

 private:
  enum class Kind { kCounter, kHistogram };

  struct Child {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::vector<double> bounds;               // histograms only
    std::map<std::string, Child> children;    // key: canonical label string
  };

  Child& child(const std::string& name, const Labels& labels, Kind kind,
               const std::vector<double>* bounds);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

}  // namespace odn::obs
