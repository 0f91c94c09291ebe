// Fingerprint and catalog-digest properties: the hex rendering, the
// canonical writer's byte layout, and one pinned catalog digest, so any
// drift in the encoding fails here first.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "core/fingerprint.h"
#include "core/scenarios.h"

namespace odn::core {
namespace {

TEST(Fingerprint, HexRendersBothLanes) {
  const Fingerprint fp{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(fp.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(Fingerprint{}.hex(), "00000000000000000000000000000000");
}

TEST(Fingerprint, WriterIsCanonical) {
  // Bit-pattern doubles: -0.0 and 0.0 are distinct values.
  CanonicalWriter pos;
  pos.f64(0.0);
  CanonicalWriter neg;
  neg.f64(-0.0);
  EXPECT_NE(pos.bytes(), neg.bytes());

  // Different lanes: fingerprints of different bytes differ in both.
  const Fingerprint x = fingerprint_bytes("x");
  const Fingerprint y = fingerprint_bytes("y");
  EXPECT_NE(x.hi, y.hi);
  EXPECT_NE(x.lo, y.lo);
}

std::string hex_bytes(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<std::uint8_t>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xF]);
  }
  return out;
}

template <typename Write>
std::string written(Write write) {
  CanonicalWriter writer;
  write(writer);
  return hex_bytes(writer.bytes());
}

// Fixed-width little-endian integers and bit-pattern doubles, whatever the
// host's byte order.
TEST(Fingerprint, WriterByteLayoutIsPinned) {
  EXPECT_EQ(written([](CanonicalWriter& w) { w.u8(0xA5); }), "a5");
  EXPECT_EQ(
      written([](CanonicalWriter& w) { w.u64(0x0102030405060708ull); }),
      "0807060504030201");
  EXPECT_EQ(written([](CanonicalWriter& w) { w.size(0x0A0B); }),
            "0b0a000000000000");
  EXPECT_EQ(written([](CanonicalWriter& w) { w.f64(-0.0); }),
            "0000000000000080");
  EXPECT_EQ(written([](CanonicalWriter& w) {
              w.f64(std::numeric_limits<double>::denorm_min());
            }),
            "0100000000000000");
  EXPECT_EQ(written([](CanonicalWriter& w) {
              w.f64(std::bit_cast<double>(0x7FF8000000000123ull));
            }),
            "230100000000f87f");
  EXPECT_EQ(written([](CanonicalWriter& w) {
              w.u8(1);
              w.u64(2);
              w.f64(1.0);
            }),
            "010200000000000000000000000000f03f");
}

// The large scenario's catalog digest. A change here means the catalog
// encoding moved.
TEST(Fingerprint, CatalogDigestIsPinned) {
  const DotInstance scenario = make_large_scenario(RequestRate::kMedium);
  EXPECT_EQ(catalog_digest(scenario.catalog).hex(),
            "5d8adf1972b61b354ee3d4a2073200a9");
}

}  // namespace
}  // namespace odn::core
