// Canonical byte encoding and fingerprinting of DOT sub-instances — the
// foundation of the warm-start/caching layer (DESIGN.md §8).
//
// Every cache in the repo keys on the *exact* canonical encoding (a byte
// string) of state, options and task set — with one deliberate exception:
// the catalog component of every key is compressed to its 128-bit digest.
// The catalog encoding is the only O(blocks) part of a key (hundreds of KB
// at bench scale), and carrying it verbatim would make key hashing and
// comparison cost more than the solves the caches save. A false hit
// therefore requires a 128-bit digest collision between two *different*
// catalogs combined with byte-identical everything-else; the differential
// churn suites (tests/core/test_warm_start_equivalence.cpp) hammer exactly
// this compromise. The same Fingerprint type backs the property tests
// (equal instances ⇒ equal fingerprints; any single-field mutation ⇒
// divergence) and log/trace display.
//
// Encodings are *name-blind*: task, path and block names never enter the
// bytes, because no solver decision depends on them (priority ties break by
// index, clique ties by numeric keys). The one observable effect of names —
// `validate_tasks` rejecting duplicates — is captured structurally by the
// name-equality partition appended to every task-set encoding, so a request
// set with duplicate names can never alias one without. Doubles are encoded
// by bit pattern (no rounding), sizes as fixed-width little-endian integers.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/dot_problem.h"

namespace odn::core {

// Two independent 64-bit digest lanes over the canonical bytes. Equality
// of fingerprints is necessary (never strictly sufficient) for instance
// equality; every cache key embeds the exact encoding of all components
// except the catalog, which enters keys through this digest.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  // 32 lowercase hex digits, hi lane first.
  std::string hex() const;
};

Fingerprint fingerprint_bytes(std::string_view bytes);

// Append-only canonical byte writer. Integers are little-endian
// fixed-width; doubles are their IEEE-754 bit patterns; strings are
// length-prefixed (canonical: two encodings are equal iff the written
// value sequences are equal).
class CanonicalWriter {
 public:
  void u8(std::uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void u32(std::uint32_t value) { put(value); }
  void u64(std::uint64_t value) { put(value); }
  void f64(double value) { put(std::bit_cast<std::uint64_t>(value)); }
  void size(std::size_t value) { u64(static_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u8(value ? 1 : 0); }
  void str(std::string_view value);
  // Appends bytes another writer produced, verbatim (no length prefix):
  // a component encoded once joins many keys unchanged.
  void raw(std::string_view bytes) { buffer_.append(bytes); }

  const std::string& bytes() const noexcept { return buffer_; }
  std::string take() noexcept { return std::move(buffer_); }
  Fingerprint fingerprint() const { return fingerprint_bytes(buffer_); }

 private:
  // Appends the value's little-endian bytes in one append: on a
  // little-endian host they are its object representation; elsewhere the
  // bytes are peeled off low to high.
  template <typename UInt>
  void put(UInt value) {
    char bytes[sizeof(UInt)];
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(bytes, &value, sizeof(UInt));
    } else {
      for (std::size_t i = 0; i < sizeof(UInt); ++i)
        bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    buffer_.append(bytes, sizeof(UInt));
  }

  std::string buffer_;
};

// Component encoders. Each writes a type tag first, so two different
// components can never produce the same byte sequence by accident.
void encode_radio(CanonicalWriter& writer, const edge::RadioModel& radio);
void encode_resources(CanonicalWriter& writer,
                      const edge::EdgeResources& resources);
void encode_catalog(CanonicalWriter& writer, const edge::DnnCatalog& catalog);
// Encodes the task's spec numerics, quality levels and raw path options
// (block indices + measured accuracy + quality index). The finalize()-cached
// derived fields are deliberately excluded: they are deterministic functions
// of the encoded inputs, and excluding them keeps pre- and post-finalize
// encodings of the same task identical.
void encode_task(CanonicalWriter& writer, const DotTask& task);
// Tasks in order, followed by the name-equality partition (for each task,
// the first index carrying the same name).
void encode_task_set(CanonicalWriter& writer,
                     const std::vector<DotTask>& tasks);
// alpha + resources + radio + catalog (+ the deployed overlay when it is
// non-empty) + task set (instance name excluded).
void encode_instance(CanonicalWriter& writer, const DotInstance& instance);

Fingerprint fingerprint_task(const DotTask& task);
Fingerprint fingerprint_instance(const DotInstance& instance);

// Digest of the catalog's canonical encoding — the form in which the
// catalog enters every cache key. Computing it is O(blocks); callers that
// fan one catalog out over many keys (the cluster probe loop) compute it
// once and pass it down.
Fingerprint catalog_digest(const edge::DnnCatalog& catalog);

}  // namespace odn::core
