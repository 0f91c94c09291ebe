#include "runtime/serving_runtime.h"

#include <sstream>
#include <utility>

namespace odn::runtime {
namespace {

cluster::ClusterOptions one_cell_options(RuntimeOptions options) {
  cluster::ClusterOptions engine;
  static_cast<RuntimeOptions&>(engine) = std::move(options);
  engine.dispatch.policy = cluster::PlacementPolicy::kFirstFit;
  return engine;
}

}  // namespace

ServingRuntime::ServingRuntime(edge::DnnCatalog catalog,
                               edge::EdgeResources resources,
                               edge::RadioModel radio,
                               std::vector<core::DotTask> templates,
                               RuntimeOptions options)
    : engine_(std::move(catalog), {cluster::CellSpec{"cell-0", resources}},
              radio, std::move(templates),
              one_cell_options(std::move(options))) {}

RuntimeReport ServingRuntime::run(const WorkloadTrace& trace) {
  return RuntimeReport{engine_.run(trace)};
}

void RuntimeReport::write_json(std::ostream& out) const {
  cluster::write_single_server_json(out, *this);
}

std::string RuntimeReport::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

}  // namespace odn::runtime
