#include "core/fingerprint.h"

#include <unordered_map>

namespace odn::core {
namespace {

// Component type tags (first byte of every encoder's output).
constexpr std::uint8_t kTagRadio = 0x52;      // 'R'
constexpr std::uint8_t kTagResources = 0x45;  // 'E'
constexpr std::uint8_t kTagCatalog = 0x43;    // 'C'
constexpr std::uint8_t kTagTask = 0x54;       // 'T'
constexpr std::uint8_t kTagTaskSet = 0x53;    // 'S'
constexpr std::uint8_t kTagInstance = 0x49;   // 'I'
constexpr std::uint8_t kTagDeployed = 0x44;   // 'D'
constexpr std::uint8_t kTagOverlay = 0x50;    // 'P'

}  // namespace

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

void CanonicalWriter::str(std::string_view value) {
  size(value.size());
  buffer_.append(value.data(), value.size());
}

void encode_radio(CanonicalWriter& writer, const edge::RadioModel& radio) {
  writer.u8(kTagRadio);
  writer.boolean(radio.is_fixed_mode());
  writer.f64(radio.fixed_rate_bits_per_second());
  writer.f64(radio.derate());
}

void encode_resources(CanonicalWriter& writer,
                      const edge::EdgeResources& resources) {
  writer.u8(kTagResources);
  writer.f64(resources.compute_capacity_s);
  writer.f64(resources.training_budget_s);
  writer.f64(resources.memory_capacity_bytes);
  writer.size(resources.total_rbs);
}

void encode_catalog(CanonicalWriter& writer, const edge::DnnCatalog& catalog) {
  writer.u8(kTagCatalog);
  writer.size(catalog.block_count());
  for (const edge::CatalogBlock& block : catalog.blocks()) {
    writer.u8(static_cast<std::uint8_t>(block.kind));
    writer.u8(static_cast<std::uint8_t>(block.architecture));
    writer.f64(block.inference_time_s);
    writer.f64(block.memory_bytes);
    writer.f64(block.training_cost_s);
  }
}

void encode_task(CanonicalWriter& writer, const DotTask& task) {
  writer.u8(kTagTask);
  writer.f64(task.spec.priority);
  writer.f64(task.spec.request_rate);
  writer.f64(task.spec.min_accuracy);
  writer.f64(task.spec.max_latency_s);
  writer.f64(task.spec.snr_db);
  writer.size(task.spec.qualities.size());
  for (const edge::QualityLevel& quality : task.spec.qualities) {
    writer.f64(quality.bits_per_image);
    writer.f64(quality.accuracy_factor);
  }
  writer.size(task.options.size());
  for (const PathOption& option : task.options) {
    writer.size(option.quality_index);
    writer.f64(option.compute_scale);
    writer.f64(option.path.accuracy);
    writer.size(option.path.blocks.size());
    for (const edge::BlockIndex block : option.path.blocks) writer.u32(block);
  }
}

void encode_task_set(CanonicalWriter& writer,
                     const std::vector<DotTask>& tasks) {
  writer.u8(kTagTaskSet);
  writer.size(tasks.size());
  for (const DotTask& task : tasks) encode_task(writer, task);
  // Name-equality partition: for each task, the first index with the same
  // name. Distinct names yield the identity sequence; duplicates point
  // backwards, so the (validate-rejected) duplicate-name shape can never
  // alias a distinct-name set under the otherwise name-blind encoding.
  std::unordered_map<std::string_view, std::size_t> first_seen;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto [it, inserted] =
        first_seen.emplace(std::string_view(tasks[t].spec.name), t);
    writer.size(it->second);
    (void)inserted;
  }
}

void encode_instance(CanonicalWriter& writer, const DotInstance& instance) {
  writer.u8(kTagInstance);
  writer.f64(instance.alpha);
  encode_resources(writer, instance.resources);
  encode_radio(writer, instance.radio);
  encode_catalog(writer, instance.catalog);
  if (!instance.deployed.empty()) {
    writer.u8(kTagDeployed);
    writer.size(instance.deployed.size());
    for (const edge::BlockIndex b : instance.deployed) writer.u32(b);
  }
  encode_task_set(writer, instance.tasks);
}

Fingerprint fingerprint_task(const DotTask& task) {
  CanonicalWriter writer;
  encode_task(writer, task);
  return writer.fingerprint();
}

Fingerprint fingerprint_instance(const DotInstance& instance) {
  CanonicalWriter writer;
  encode_instance(writer, instance);
  return writer.fingerprint();
}

Fingerprint catalog_digest(const edge::DnnCatalog& catalog) {
  CanonicalWriter writer;
  encode_catalog(writer, catalog);
  return writer.fingerprint();
}

Fingerprint overlay_digest(const Fingerprint& catalog_fp,
                           const std::vector<edge::BlockIndex>& deployed) {
  if (deployed.empty()) return catalog_fp;
  CanonicalWriter writer;
  writer.u8(kTagOverlay);
  writer.u64(catalog_fp.hi);
  writer.u64(catalog_fp.lo);
  writer.size(deployed.size());
  for (const edge::BlockIndex b : deployed) writer.u32(b);
  return writer.fingerprint();
}

}  // namespace odn::core
