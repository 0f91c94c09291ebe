#include "core/instance_io.h"

#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/fmt.h"
#include "util/record_reader.h"

namespace odn::core {
namespace {

// v1 is the seed-era single-architecture format; v2 adds the block
// architecture token and the option compute_scale. The writer emits v1
// whenever the instance uses neither extension so existing files and
// their consumers keep byte-identical round-trips.
constexpr const char* kHeaderV1 = "ODN-INSTANCE 1";
constexpr const char* kHeaderV2 = "ODN-INSTANCE 2";

bool needs_v2(const DotInstance& instance) {
  for (const edge::CatalogBlock& block : instance.catalog.blocks()) {
    if (block.architecture != edge::Architecture::kResNet) return true;
  }
  for (const DotTask& task : instance.tasks) {
    for (const PathOption& option : task.options) {
      if (option.compute_scale != 1.0) return true;
    }
  }
  return false;
}

}  // namespace

void write_instance(const DotInstance& instance, std::ostream& out) {
  const bool v2 = needs_v2(instance);
  out.precision(std::numeric_limits<double>::max_digits10);
  out << (v2 ? kHeaderV2 : kHeaderV1) << '\n';
  out << "name " << instance.name << '\n';
  out << "alpha " << instance.alpha << '\n';
  out << "resources " << instance.resources.compute_capacity_s << ' '
      << instance.resources.training_budget_s << ' '
      << instance.resources.memory_capacity_bytes << ' '
      << instance.resources.total_rbs << '\n';
  if (instance.radio.is_fixed_mode())
    out << "radio fixed " << instance.radio.fixed_rate_bits_per_second()
        << '\n';
  else
    out << "radio lte\n";

  out << "blocks " << instance.catalog.block_count() << '\n';
  for (std::size_t i = 0; i < instance.catalog.block_count(); ++i) {
    const edge::CatalogBlock& block =
        instance.catalog.block(static_cast<edge::BlockIndex>(i));
    out << "block " << static_cast<int>(block.kind) << ' ';
    if (v2) out << static_cast<int>(block.architecture) << ' ';
    out << block.inference_time_s << ' ' << block.memory_bytes << ' '
        << block.training_cost_s << ' ' << block.name << '\n';
  }

  out << "tasks " << instance.tasks.size() << '\n';
  for (const DotTask& task : instance.tasks) {
    out << "task " << task.spec.priority << ' ' << task.spec.request_rate
        << ' ' << task.spec.min_accuracy << ' ' << task.spec.max_latency_s
        << ' ' << task.spec.snr_db << ' ' << task.spec.qualities.size()
        << ' ' << task.options.size() << ' ' << task.spec.name << '\n';
    for (const edge::QualityLevel& quality : task.spec.qualities)
      out << "quality " << quality.bits_per_image << ' '
          << quality.accuracy_factor << '\n';
    for (const PathOption& option : task.options) {
      out << "option " << option.quality_index << ' ';
      if (v2) out << option.compute_scale << ' ';
      out << option.path.accuracy << ' ' << option.path.blocks.size();
      for (const edge::BlockIndex b : option.path.blocks) out << ' ' << b;
      out << ' ' << option.path.name << '\n';
    }
  }
  if (!out) throw std::runtime_error("write_instance: write failed");
}

void write_instance(const DotInstance& instance, const std::string& path) {
  std::ofstream file(path);
  if (!file)
    throw std::runtime_error("write_instance: cannot open " + path);
  write_instance(instance, file);
}

DotInstance read_instance(std::istream& in) {
  util::RecordReader reader(in, "read_instance");
  const bool v2 = reader.header({kHeaderV1, kHeaderV2}) == 1;
  DotInstance instance;
  instance.name = reader.record("name").rest();
  instance.alpha = reader.record("alpha").number("alpha");
  instance.resources.compute_capacity_s =
      reader.record("resources").number("compute capacity");
  instance.resources.training_budget_s = reader.number("training budget");
  instance.resources.memory_capacity_bytes =
      reader.number("memory capacity");
  instance.resources.total_rbs = reader.count<std::size_t>("RB count");
  const std::string_view mode = reader.record("radio").word("radio mode");
  if (mode == "fixed") {
    const double rate = reader.number("fixed radio rate");
    instance.radio =
        reader.check([&] { return edge::RadioModel::fixed(rate); });
  } else if (mode == "lte") {
    instance.radio = edge::RadioModel::lte();
  } else {
    reader.fail(util::fmt("unknown radio mode '{}'", mode));
  }

  const auto block_count =
      reader.record("blocks").count<std::size_t>("block count");
  for (std::size_t i = 0; i < block_count; ++i) {
    edge::CatalogBlock block;
    const auto kind = reader.record("block").count<unsigned>("block kind");
    if (kind > static_cast<unsigned>(edge::BlockKind::kClassifier))
      reader.fail(util::fmt("bad block kind {}", kind));
    block.kind = static_cast<edge::BlockKind>(kind);
    const auto architecture = v2 ? reader.count<unsigned>("architecture") : 0;
    if (architecture > static_cast<unsigned>(edge::Architecture::kTransformer))
      reader.fail(util::fmt("bad block architecture {}", architecture));
    block.architecture = static_cast<edge::Architecture>(architecture);
    block.inference_time_s = reader.number("inference time");
    block.memory_bytes = reader.number("memory");
    block.training_cost_s = reader.number("training cost");
    block.name = reader.rest();
    reader.check([&] { instance.catalog.add_block(std::move(block)); });
  }

  const auto task_count =
      reader.record("tasks").count<std::size_t>("task count");
  for (std::size_t t = 0; t < task_count; ++t) {
    DotTask task;
    task.spec.priority = reader.record("task").number("priority");
    task.spec.request_rate = reader.number("request rate");
    task.spec.min_accuracy = reader.number("min accuracy");
    task.spec.max_latency_s = reader.number("max latency");
    task.spec.snr_db = reader.number("snr");
    const auto quality_count = reader.count<std::size_t>("quality count");
    const auto option_count = reader.count<std::size_t>("option count");
    task.spec.name = reader.rest();
    for (std::size_t q = 0; q < quality_count; ++q) {
      edge::QualityLevel& quality = task.spec.qualities.emplace_back();
      quality.bits_per_image =
          reader.record("quality").number("bits per image");
      quality.accuracy_factor = reader.number("accuracy factor");
    }
    for (std::size_t o = 0; o < option_count; ++o) {
      PathOption& option = task.options.emplace_back();
      option.quality_index =
          reader.record("option").count<std::size_t>("quality index");
      if (v2) option.compute_scale = reader.number("compute scale");
      option.path.accuracy = reader.number("path accuracy");
      const auto path_blocks = reader.count<std::size_t>("path length");
      for (std::size_t b = 0; b < path_blocks; ++b)
        option.path.blocks.push_back(
            reader.count<edge::BlockIndex>("path block"));
      option.path.name = reader.rest();
    }
    instance.tasks.push_back(std::move(task));
  }
  reader.check([&] { instance.finalize(); });
  reader.finish();
  return instance;
}

DotInstance read_instance_file(const std::string& path) {
  std::ifstream file(path);
  if (!file)
    throw std::runtime_error("read_instance_file: cannot open " + path);
  return read_instance(file);
}

}  // namespace odn::core
