// The serving engine: one deterministic, seedable event loop that replays
// a churn workload (runtime::WorkloadTrace) against a ClusterDispatcher.
// It runs the paper's Sec. III-B dynamic scenario over time on any number
// of cells; a single edge server is a one-cell deployment
// (runtime::ServingRuntime is that adapter).
//
// Arrivals instantiate their task template and are placed by the
// configured policy (with spillover); under scheduling a rejected arrival
// runs the preemption ladder's fallback rungs cell by cell. Rejections
// enter the retry policy (bounded attempts, exponential backoff, optional
// accuracy downgrade on the final try); departures release the job. At
// every epoch boundary the due fault events apply as one batch, each
// cell's live deployment is measured by its own EdgeEmulator stream, and
// cells with SLO violations offer up to migration_batch of their
// lowest-priority jobs to sibling cells (flash-crowd migration — a move is
// release + re-admit, so per-cell ledgers can never be violated). A run
// pulls the trace as it plays and holds books only for live jobs.
//
// Determinism contract: given equal (catalog, cells, templates, options,
// trace), two runs produce byte-identical JSON reports for any
// ODN_THREADS setting and for serial vs parallel cost_probe fan-out —
// cells own independent ledgers, probe results reduce in fixed cell order
// with strict `<` tie-breaking, and every stochastic draw comes from
// seeded per-(epoch, cell) Rng streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_stats.h"
#include "cluster/dispatcher.h"
#include "runtime/options.h"
#include "runtime/workload.h"

namespace odn::cluster {

// The engine options plus what only a multi-cell deployment needs.
struct ClusterOptions : runtime::RuntimeOptions {
  DispatcherOptions dispatch{};
  // Flash-crowd migration: after an epoch measurement, every cell with
  // SLO violations offers its migration_batch lowest-priority active jobs
  // to the sibling cells (highest normalized headroom first).
  bool migrate_on_slo = true;
  std::size_t migration_batch = 2;

  // RuntimeOptions::validate plus the migration knobs.
  void validate() const;
};

class ClusterRuntime {
 public:
  ClusterRuntime(edge::DnnCatalog catalog, std::vector<CellSpec> cells,
                 edge::RadioModel radio,
                 std::vector<core::DotTask> templates,
                 ClusterOptions options = {});

  // Replays the trace from t=0 on freshly reset cells and returns the
  // cluster accounting report. The trace's template_count must match the
  // template set handed to the constructor.
  ClusterReport run(const runtime::WorkloadTrace& trace);

  // Priority-class index of a job priority.
  std::size_t class_of(double priority) const noexcept;

  const ClusterDispatcher& dispatcher() const noexcept { return dispatcher_; }
  ClusterDispatcher& dispatcher() noexcept { return dispatcher_; }

 private:
  edge::DnnCatalog catalog_;
  edge::RadioModel radio_;
  std::vector<core::DotTask> templates_;
  ClusterOptions options_;
  ClusterDispatcher dispatcher_;
};

}  // namespace odn::cluster
