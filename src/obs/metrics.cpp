#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace odn::obs {
namespace {

constexpr double kMicro = 1e6;

// Saturating double -> micro-unit fixed point. llround keeps the mapping
// deterministic; saturation keeps pathological observations from wrapping.
std::int64_t to_micro(double value) noexcept {
  const double scaled = value * kMicro;
  if (!(scaled > -9.2e18)) return std::numeric_limits<std::int64_t>::min();
  if (!(scaled < 9.2e18)) return std::numeric_limits<std::int64_t>::max();
  return std::llround(scaled);
}

// Prometheus label-value escaping: backslash, double quote and newline.
std::string prometheus_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(ch);
    }
  }
  return out;
}

Labels canonical_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 1; i < labels.size(); ++i)
    if (labels[i].first == labels[i - 1].first)
      throw std::invalid_argument("MetricsRegistry: duplicate label key '" +
                                  labels[i].first + "'");
  return labels;
}

// Canonical child key; doubles as the {...} selector of the exposition.
std::string label_string(const Labels& labels) {
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ",";
    out += labels[i].first + "=\"" + prometheus_escape(labels[i].second) +
           "\"";
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: need at least one bucket bound");
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i]))
      throw std::invalid_argument("Histogram: bounds must be finite");
    if (i > 0 && bounds_[i] <= bounds_[i - 1])
      throw std::invalid_argument(
          "Histogram: bounds must be strictly ascending");
  }
}

std::size_t Histogram::bucket_index(double value) const noexcept {
  // `le` semantics: the first bound >= value wins; above the last bound
  // the observation lands in the +Inf overflow bucket.
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
}

void Histogram::observe(double value) noexcept {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micro_.fetch_add(to_micro(value), std::memory_order_relaxed);
}

void Histogram::observe_all(std::span<const double> values) {
  if (values.empty()) return;
  std::vector<std::uint64_t> counts(buckets_.size(), 0);
  // Unsigned, so it wraps where the atomic sum would, without signed
  // overflow; the conversion back is modular.
  std::uint64_t sum = 0;
  for (const double value : values) {
    ++counts[bucket_index(value)];
    sum += static_cast<std::uint64_t>(to_micro(value));
  }
  for (std::size_t i = 0; i < counts.size(); ++i)
    if (counts[i] != 0)
      buckets_[i].fetch_add(counts[i], std::memory_order_relaxed);
  count_.fetch_add(values.size(), std::memory_order_relaxed);
  sum_micro_.fetch_add(static_cast<std::int64_t>(sum),
                       std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket(std::size_t index) const noexcept {
  return index < buckets_.size()
             ? buckets_[index].load(std::memory_order_relaxed)
             : 0;
}

double Histogram::sum() const noexcept {
  return static_cast<double>(sum_micro_.load(std::memory_order_relaxed)) /
         kMicro;
}

void Histogram::reset() noexcept {
  for (std::atomic<std::uint64_t>& bucket : buckets_)
    bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_micro_.store(0, std::memory_order_relaxed);
}

MetricsRegistry::Child& MetricsRegistry::child(
    const std::string& name, const Labels& labels, Kind kind,
    const std::vector<double>* bounds) {
  const std::string key = label_string(canonical_labels(labels));

  const std::lock_guard<std::mutex> lock(mutex_);
  auto [family_it, inserted] = families_.try_emplace(name);
  Family& family = family_it->second;
  if (inserted) {
    family.kind = kind;
    if (bounds != nullptr) family.bounds = *bounds;
  } else {
    if (family.kind != kind)
      throw std::invalid_argument(
          "MetricsRegistry: metric '" + name +
          "' re-registered as a different type");
    if (bounds != nullptr && family.bounds != *bounds)
      throw std::invalid_argument(
          "MetricsRegistry: histogram '" + name +
          "' re-registered with different bounds");
  }

  auto [child_it, child_inserted] = family.children.try_emplace(key);
  Child& entry = child_it->second;
  if (child_inserted) {
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>(family.bounds);
        break;
    }
  }
  return entry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  return *child(name, labels, Kind::kCounter, nullptr).counter;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const Labels& labels) {
  return *child(name, labels, Kind::kHistogram, &bounds).histogram;
}

std::size_t MetricsRegistry::metric_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& [name, family] : families_) count += family.children.size();
  return count;
}

void MetricsRegistry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, family] : families_) {
    for (auto& [key, entry] : family.children) {
      if (entry.counter) entry.counter->reset();
      if (entry.histogram) entry.histogram->reset();
    }
  }
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, family] : families_) {
    out << "# TYPE " << name << " "
        << (family.kind == Kind::kCounter ? "counter" : "histogram") << "\n";
    for (const auto& [key, entry] : family.children) {
      const std::string selector = key.empty() ? "" : "{" + key + "}";
      if (entry.counter) {
        out << name << selector << " " << entry.counter->value() << "\n";
      } else {
        const Histogram& histogram = *entry.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < histogram.bounds().size(); ++i) {
          cumulative += histogram.bucket(i);
          out << name << "_bucket{" << key << (key.empty() ? "" : ",")
              << "le=\"" << json_shortest(histogram.bounds()[i]) << "\"} "
              << cumulative << "\n";
        }
        out << name << "_bucket{" << key << (key.empty() ? "" : ",")
            << "le=\"+Inf\"} " << histogram.count() << "\n";
        out << name << "_sum" << selector << " "
            << json_shortest(histogram.sum()) << "\n";
        out << name << "_count" << selector << " " << histogram.count()
            << "\n";
      }
    }
  }
}

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream out;
  write_prometheus(out);
  return out.str();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry instance;
  return instance;
}

}  // namespace odn::obs
