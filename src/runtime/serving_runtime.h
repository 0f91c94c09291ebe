// Long-horizon serving runtime for one edge server — the paper's Sec.
// III-B dynamic scenario run over time instead of as a one-shot solve.
//
// A single server is a one-cell deployment of the serving engine
// (cluster/cluster_runtime.h): this adapter builds a one-cell first_fit
// ClusterRuntime, runs it, and returns the engine's own one-cell report. Every event-loop behaviour — retries, fault recovery,
// the preemption ladder, batching, burn-rate alerts, epoch measurement —
// is the engine's.
//
// Determinism contract: given equal (catalog, resources, templates,
// options, trace), two runs produce byte-identical JSON reports for any
// ODN_THREADS setting (the engine's contract, DESIGN.md §4d).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/cluster_runtime.h"
#include "cluster/cluster_stats.h"
#include "core/controller.h"
#include "runtime/options.h"
#include "runtime/workload.h"

namespace odn::runtime {

// Exists only to select the odn-runtime-report/1 schema for the engine's
// one-cell report (cluster::write_single_server_json).
struct RuntimeReport : cluster::ClusterReport {
  void write_json(std::ostream& out) const;
  std::string to_json() const;
};

// The spelling perfbench compiles against; in-repo code spells
// cluster::ClusterEpochSnapshot.
using EpochSnapshot = cluster::ClusterEpochSnapshot;

class ServingRuntime {
 public:
  ServingRuntime(edge::DnnCatalog catalog, edge::EdgeResources resources,
                 edge::RadioModel radio,
                 std::vector<core::DotTask> templates,
                 RuntimeOptions options = {});

  // Replays the trace from t=0 on a freshly reset controller and returns
  // the engine's one-cell accounting report. The trace's template_count
  // must match the template set handed to the constructor.
  RuntimeReport run(const WorkloadTrace& trace);

  // Priority-class index of a template priority (exposed for tests).
  std::size_t class_of(double priority) const noexcept {
    return engine_.class_of(priority);
  }

  // The one cell's controller (caches, ledger, deployed blocks).
  const core::OffloadnnController& controller() const noexcept {
    return engine_.dispatcher().cell(0).controller();
  }

 private:
  cluster::ClusterRuntime engine_;
};

}  // namespace odn::runtime
