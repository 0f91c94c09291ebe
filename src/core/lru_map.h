// Bounded least-recently-used map with exact string keys — the storage
// engine behind PlanCache (DESIGN.md §8).
//
// Keys are full canonical encodings (core/fingerprint.h), so a lookup hit
// proves key equality; no hashing shortcut can produce a false hit. The
// recency list owns the entries; the index maps string_views into the
// owning nodes (std::list nodes never relocate, so the views stay valid
// across splices and unrelated insertions).
//
// Not thread-safe by design: every cache consumer in the repo confines
// lookups and insertions to serial sections (or to state owned by exactly
// one worker), which is also what keeps hit/miss counts and eviction order
// invariant across ODN_THREADS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace odn::core {

template <class Value>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0)
      throw std::invalid_argument("LruMap: capacity must be >= 1");
  }

  // The index holds iterators and views into the list; default copying
  // would alias the source. Nothing in the repo needs cache copies.
  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;
  LruMap(LruMap&&) noexcept = default;
  LruMap& operator=(LruMap&&) noexcept = default;

  // Returns the cached value, bumping the entry to most-recent; nullptr on
  // miss. The pointer stays valid until the entry is evicted or cleared.
  Value* find(std::string_view key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  // Inserts `key` (overwriting in place if present), evicting the
  // least-recently-used entry when over capacity.
  Value& insert(std::string key, Value value) {
    if (Value* existing = find(key)) {
      *existing = std::move(value);
      return *existing;
    }
    entries_.push_front(Entry{std::move(key), std::move(value)});
    index_.emplace(std::string_view(entries_.front().key), entries_.begin());
    if (entries_.size() > capacity_) {
      index_.erase(std::string_view(entries_.back().key));
      entries_.pop_back();
      ++evictions_;
    }
    return entries_.front().value;
  }

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

  // Recency introspection (tests pin the eviction order through these).
  const std::string& mru_key() const {
    if (entries_.empty()) throw std::logic_error("LruMap: empty");
    return entries_.front().key;
  }
  const std::string& lru_key() const {
    if (entries_.empty()) throw std::logic_error("LruMap: empty");
    return entries_.back().key;
  }

  void clear() {
    index_.clear();
    entries_.clear();
  }

 private:
  struct Entry {
    std::string key;
    Value value;
  };

  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
      index_;
};

}  // namespace odn::core
