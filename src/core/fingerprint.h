// Catalog digest: a 128-bit fingerprint of a DNN catalog's canonical byte
// encoding. Nothing in the library keys on it any more (no cache stands in
// front of the solvers, DESIGN.md §8); the benchmark driver
// (perfbench/bench.cpp) still computes one and passes it to the ignored
// trailing parameters of ClusterDispatcher::admit and ControllerSchedHost,
// so it stays until the next change to the benchmark.
//
// The encoding is name-blind (block names never enter the bytes); doubles
// are encoded by bit pattern (no rounding), sizes as fixed-width
// little-endian integers.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "edge/dnn_catalog.h"

namespace odn::core {

// Two independent 64-bit digest lanes over the canonical bytes.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  // 32 lowercase hex digits, hi lane first.
  std::string hex() const;
};

Fingerprint fingerprint_bytes(std::string_view bytes);

// Append-only canonical byte writer. Integers are little-endian
// fixed-width; doubles are their IEEE-754 bit patterns.
class CanonicalWriter {
 public:
  void u8(std::uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void u64(std::uint64_t value) { put(value); }
  void f64(double value) { put(std::bit_cast<std::uint64_t>(value)); }
  void size(std::size_t value) { u64(static_cast<std::uint64_t>(value)); }

  const std::string& bytes() const noexcept { return buffer_; }
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

// Digest of the catalog's canonical encoding: per block its kind,
// architecture, inference time, memory and training cost. O(blocks).
Fingerprint catalog_digest(const edge::DnnCatalog& catalog);

}  // namespace odn::core
