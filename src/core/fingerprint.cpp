#include "core/fingerprint.h"

namespace odn::core {

std::string Fingerprint::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t lane = i < 8 ? hi : lo;
    const int shift = 56 - 8 * (i % 8);
    const auto byte = static_cast<std::uint8_t>(lane >> shift);
    out[2 * static_cast<std::size_t>(i)] = kDigits[byte >> 4];
    out[2 * static_cast<std::size_t>(i) + 1] = kDigits[byte & 0xF];
  }
  return out;
}

Fingerprint fingerprint_bytes(std::string_view bytes) {
  // Lane 1: FNV-1a. Lane 2: a hash_combine-style mix with a different
  // structure, so a collision in one lane is independent of the other.
  std::uint64_t a = 0xcbf29ce484222325ull;
  std::uint64_t b = 0x9e3779b97f4a7c15ull;
  for (const char c : bytes) {
    const auto byte = static_cast<std::uint8_t>(c);
    a = (a ^ byte) * 0x100000001b3ull;
    b ^= byte + 0x9e3779b97f4a7c15ull + (b << 6) + (b >> 2);
  }
  return Fingerprint{a, b};
}

Fingerprint catalog_digest(const edge::DnnCatalog& catalog) {
  CanonicalWriter writer;
  writer.u8(0x43);  // 'C', the catalog's type tag
  writer.size(catalog.block_count());
  for (const edge::CatalogBlock& block : catalog.blocks()) {
    writer.u8(static_cast<std::uint8_t>(block.kind));
    writer.u8(static_cast<std::uint8_t>(block.architecture));
    writer.f64(block.inference_time_s);
    writer.f64(block.memory_bytes);
    writer.f64(block.training_cost_s);
  }
  return writer.fingerprint();
}

}  // namespace odn::core
