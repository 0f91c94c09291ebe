// Canonical encoding / fingerprint properties (DESIGN.md §8):
//  - determinism: equal instances encode to equal bytes and fingerprints;
//  - sensitivity: perturbing any single numeric field diverges the
//    encoding (a mutation fuzzer sweeps every field the solve reads);
//  - name-blindness: renames never change the bytes, duplicate names do
//    (the validate_tasks partition);
//  - finalize-independence: pre- and post-finalize tasks encode equally;
//  - layout: the writer's bytes and one controller probe key are pinned,
//    so any drift in the key layout fails here first.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/fingerprint.h"
#include "core/scenarios.h"
#include "fuzz_instances.h"

namespace odn::core {
namespace {

std::string instance_bytes(const DotInstance& instance) {
  CanonicalWriter writer;
  encode_instance(writer, instance);
  return writer.take();
}

TEST(Fingerprint, HexRendersBothLanes) {
  const Fingerprint fp{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(fp.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(Fingerprint{}.hex(), "00000000000000000000000000000000");
}

TEST(Fingerprint, EqualInstancesEqualBytesAndFingerprints) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const DotInstance a = testing::random_instance(seed);
    const DotInstance b = testing::random_instance(seed);
    EXPECT_EQ(instance_bytes(a), instance_bytes(b)) << "seed " << seed;
    EXPECT_EQ(fingerprint_instance(a), fingerprint_instance(b))
        << "seed " << seed;
  }
}

TEST(Fingerprint, DistinctSeedsDiverge) {
  const Fingerprint base = fingerprint_instance(testing::random_instance(1));
  for (std::uint64_t seed = 2; seed <= 40; ++seed)
    EXPECT_NE(fingerprint_instance(testing::random_instance(seed)), base)
        << "seed " << seed;
}

// Mutation fuzzer: every field the solver reads must reach the encoding.
// Each mutator perturbs exactly one field of a fresh instance; the mutated
// encoding must differ from the pristine one.
TEST(Fingerprint, AnySingleFieldMutationDiverges) {
  using Mutator = void (*)(DotInstance&);
  struct NamedMutator {
    const char* name;
    Mutator apply;
  };
  const NamedMutator mutators[] = {
      {"alpha", [](DotInstance& i) { i.alpha += 0.015625; }},
      {"compute_capacity",
       [](DotInstance& i) { i.resources.compute_capacity_s *= 2.0; }},
      {"training_budget",
       [](DotInstance& i) { i.resources.training_budget_s += 1.0; }},
      {"memory_capacity",
       [](DotInstance& i) { i.resources.memory_capacity_bytes += 4096.0; }},
      {"total_rbs", [](DotInstance& i) { i.resources.total_rbs += 1; }},
      {"block_inference_time",
       [](DotInstance& i) {
         DotInstance fresh;
         for (std::size_t b = 0; b < i.catalog.block_count(); ++b) {
           edge::CatalogBlock copy =
               i.catalog.block(static_cast<edge::BlockIndex>(b));
           if (b == 0) copy.inference_time_s *= 2.0;
           fresh.catalog.add_block(std::move(copy));
         }
         i.catalog = std::move(fresh.catalog);
       }},
      {"block_memory",
       [](DotInstance& i) {
         DotInstance fresh;
         for (std::size_t b = 0; b < i.catalog.block_count(); ++b) {
           edge::CatalogBlock copy =
               i.catalog.block(static_cast<edge::BlockIndex>(b));
           if (b == 0) copy.memory_bytes += 1.0;
           fresh.catalog.add_block(std::move(copy));
         }
         i.catalog = std::move(fresh.catalog);
       }},
      {"task_priority",
       [](DotInstance& i) { i.tasks[0].spec.priority += 0.03125; }},
      {"task_rate",
       [](DotInstance& i) { i.tasks[0].spec.request_rate *= 1.5; }},
      {"task_min_accuracy",
       [](DotInstance& i) { i.tasks[0].spec.min_accuracy += 0.0078125; }},
      {"task_max_latency",
       [](DotInstance& i) { i.tasks[0].spec.max_latency_s *= 0.5; }},
      {"task_snr", [](DotInstance& i) { i.tasks[0].spec.snr_db += 1.0; }},
      {"quality_bits",
       [](DotInstance& i) {
         i.tasks[0].spec.qualities[0].bits_per_image += 8.0;
       }},
      {"quality_factor",
       [](DotInstance& i) {
         i.tasks[0].spec.qualities[0].accuracy_factor -= 0.0625;
       }},
      {"option_accuracy",
       [](DotInstance& i) { i.tasks[0].options[0].path.accuracy += 1e-6; }},
      {"option_blocks",
       [](DotInstance& i) {
         i.tasks[0].options[0].path.blocks.push_back(0);
       }},
      {"task_dropped", [](DotInstance& i) { i.tasks.pop_back(); }},
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string pristine =
        instance_bytes(testing::random_instance(seed));
    for (const NamedMutator& mutator : mutators) {
      DotInstance mutated = testing::random_instance(seed);
      mutator.apply(mutated);
      EXPECT_NE(instance_bytes(mutated), pristine)
          << mutator.name << " not reached by the encoding, seed " << seed;
    }
  }
}

TEST(Fingerprint, NameBlindButDuplicateAware) {
  const DotInstance base = testing::random_instance(9);
  ASSERT_GE(base.tasks.size(), 1u);

  // Renaming everything changes nothing.
  DotInstance renamed = testing::random_instance(9);
  renamed.name = "other-world";
  for (std::size_t t = 0; t < renamed.tasks.size(); ++t) {
    renamed.tasks[t].spec.name = "renamed-" + std::to_string(t);
    for (auto& option : renamed.tasks[t].options)
      option.path.name += "-renamed";
  }
  EXPECT_EQ(instance_bytes(renamed), instance_bytes(base));

  // A duplicate name changes the partition even though no numeric field
  // moved (validate_tasks would reject the duplicate set).
  if (base.tasks.size() >= 2) {
    DotInstance duplicated = testing::random_instance(9);
    duplicated.tasks[1].spec.name = duplicated.tasks[0].spec.name;
    EXPECT_NE(instance_bytes(duplicated), instance_bytes(base));
  }
}

TEST(Fingerprint, TaskEncodingIgnoresFinalizeDerivedFields) {
  const DotInstance world = testing::random_instance(13);
  for (const DotTask& task : world.tasks) {
    DotTask unfinalized = task;
    for (PathOption& option : unfinalized.options) {
      // Smash the derived caches; the encoding must not notice.
      option.inference_time_s = -1.0;
      option.input_bits = -1.0;
    }
    EXPECT_EQ(fingerprint_task(unfinalized), fingerprint_task(task));
  }
}

TEST(Fingerprint, WriterIsCanonical) {
  // Length-prefixing keeps ("ab","c") and ("a","bc") apart.
  CanonicalWriter ab_c;
  ab_c.str("ab");
  ab_c.str("c");
  CanonicalWriter a_bc;
  a_bc.str("a");
  a_bc.str("bc");
  EXPECT_NE(ab_c.bytes(), a_bc.bytes());

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
  EXPECT_EQ(written([](CanonicalWriter& w) { w.boolean(true); }), "01");
  EXPECT_EQ(written([](CanonicalWriter& w) { w.u32(0x01020304u); }),
            "04030201");
  EXPECT_EQ(
      written([](CanonicalWriter& w) { w.u64(0x0102030405060708ull); }),
      "0807060504030201");
  EXPECT_EQ(written([](CanonicalWriter& w) { w.size(0x0A0B); }),
            "0b0a000000000000");
  EXPECT_EQ(written([](CanonicalWriter& w) { w.str("ab"); }),
            "02000000000000006162");
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
              w.u32(2);
              w.f64(1.0);
            }),
            "0102000000000000000000f03f");
}

// The plan-cache key of one large-scenario task against an empty
// controller. Every probe, plan-cache hit and clique key is built by the
// same writer, so a change here means every cache key moved.
TEST(Fingerprint, ProbeCacheKeyIsPinned) {
  const DotInstance scenario = make_large_scenario(RequestRate::kMedium);
  ASSERT_FALSE(scenario.tasks.empty());
  const OffloadnnController controller(scenario.resources, scenario.radio);
  const std::string key =
      controller.probe_cache_key(scenario.catalog, {scenario.tasks[0]});
  EXPECT_EQ(key.size(), 713u);
  EXPECT_EQ(fingerprint_bytes(key).hex(), "6a84b15837706f3aeb3872d08c5bee1c");
  EXPECT_EQ(catalog_digest(scenario.catalog).hex(), "5d8adf1972b61b354ee3d4a2073200a9");
}

// The dispatcher encodes a request set once and appends it to each cell's
// state prefix; the result must be the key a cell builds on its own, with
// and without deployed blocks in the state.
TEST(Fingerprint, PreEncodedRequestsGiveTheSameProbeKey) {
  const DotInstance scenario = make_large_scenario(RequestRate::kLow);
  OffloadnnController controller(scenario.resources, scenario.radio);
  const Fingerprint digest = catalog_digest(scenario.catalog);
  for (std::size_t t = 0; t < 6; ++t) {
    const std::vector<DotTask> requests{scenario.tasks[t + 1]};
    CanonicalWriter writer;
    encode_task_set(writer, requests);
    EXPECT_EQ(controller.probe_cache_key(scenario.catalog, writer.bytes(),
                                         digest),
              controller.probe_cache_key(scenario.catalog, requests));
    controller.admit_incremental(scenario.catalog, {scenario.tasks[t]});
  }
  EXPECT_FALSE(controller.deployed_blocks().empty());
}

}  // namespace
}  // namespace odn::core
