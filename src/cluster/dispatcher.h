// Cluster-wide admission front door: owns the cells, picks a target cell
// per placement policy, and (first_fit, least_loaded) spills rejected
// tasks over to the remaining cells (fixed index order) before the
// caller's retry policy kicks in.
//
// Determinism contract: admission outcomes depend only on (cells, policy,
// request) — the cost_probe fan-out writes each cell's probe into its own
// slot and reduces serially in cell order with strict `<` tie-breaking, so
// ODN_THREADS never changes which cell wins. Under cost_probe an
// admission commits the plan its probe solved on the chosen cell, which is
// the plan admit_incremental would solve again on the unchanged cell
// state; when that probe rejects, every probe rejected, and the admission
// commits nothing.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cell.h"
#include "cluster/placement.h"
#include "core/controller.h"
#include "core/fingerprint.h"
#include "edge/dnn_catalog.h"
#include "edge/radio.h"

namespace odn::cluster {

inline constexpr std::size_t kNoCell = std::numeric_limits<std::size_t>::max();

struct DispatcherOptions {
  PlacementPolicy policy = PlacementPolicy::kLeastLoaded;
  // When the preferred cell rejects, try every remaining cell in fixed
  // index order before reporting the rejection. cost_probe has probed
  // every cell already, so it never spills.
  bool spillover = true;
  // cost_probe only: fan the per-cell probes out on the global thread
  // pool. Bit-identical to the serial path (the golden-report ctest pins
  // it); false forces the serial loop, mostly for differential testing.
  bool parallel_probe = true;
};

struct AdmissionOutcome {
  bool admitted = false;
  std::size_t cell = kNoCell;       // owning cell when admitted
  std::size_t preferred_cell = kNoCell;  // the policy's first choice
  bool spilled = false;             // admitted on a non-preferred cell
  core::TaskPlan plan;              // valid when admitted
};

class ClusterDispatcher {
 public:
  ClusterDispatcher(std::vector<CellSpec> cells, edge::RadioModel radio,
                    core::OffloadnnController::Options controller_options,
                    DispatcherOptions options = {});

  std::size_t cell_count() const noexcept { return cells_.size(); }
  EdgeCell& cell(std::size_t index) { return cells_.at(index); }
  const EdgeCell& cell(std::size_t index) const { return cells_.at(index); }
  const DispatcherOptions& options() const noexcept { return options_; }

  // Always nullptr: the plan cache is gone, and the accessor exists only
  // for the benchmark driver (see core/plan_cache.h).
  const core::PlanCache* plan_cache() const noexcept { return nullptr; }

  // The placement policy's preferred cell for `task` given current load
  // (no state change; exposed for tests and for migration targeting).
  std::size_t choose_cell(const edge::DnnCatalog& catalog,
                          const core::DotTask& task) const;

  // Full admission: preferred cell first, then spillover (not under
  // cost_probe). Records
  // ownership on success. Task names must be cluster-unique. The trailing
  // pointer is ignored; it remains only for the benchmark driver, which
  // still passes a catalog digest (see core/fingerprint.h).
  AdmissionOutcome admit(const edge::DnnCatalog& catalog,
                         const core::DotTask& task,
                         const core::Fingerprint* = nullptr);

  // Scheduling primitive (src/sched/): commits a joint request set on one
  // specific cell — no placement policy, no spillover — and records
  // ownership of every admitted task. The preemption ladder needs this so
  // a downgrade commit {arrival, re-shaped victims} lands atomically on
  // exactly the cell whose state it probed. Request names must not be
  // currently owned; the cell must be accepting.
  core::DeploymentPlan admit_on(std::size_t index,
                                const edge::DnnCatalog& catalog,
                                std::vector<core::DotTask> requests);

  // Releases the named task from its owning cell; returns the cell index
  // or kNoCell when the task is unknown.
  std::size_t release(const std::string& task_name);

  // Owning cell of an admitted task (kNoCell when unknown).
  std::size_t owner_of(const std::string& task_name) const;

  // Migration primitive: probe `target`, and only when the probe admits,
  // release the task at its current cell and commit the probed plan on
  // `target` (the release touches only the source cell, so the probe is
  // still current and the move can never strand the task). Returns true
  // and updates ownership on success; false leaves everything untouched.
  bool migrate(const edge::DnnCatalog& catalog, const core::DotTask& task,
               const std::string& task_name, std::size_t target,
               core::TaskPlan* migrated_plan = nullptr);

  std::size_t total_active() const;

  // Fault injection: a non-accepting cell is skipped by choose_cell,
  // spillover and migrate (its active tasks keep running — only new
  // placements are gated). All cells accept by default and after reset().
  bool accepting(std::size_t index) const { return accepting_.at(index); }
  void set_accepting(std::size_t index, bool accepting);

  // Cell crash: wipes the cell's controller state (ledger, deployments),
  // forgets every ownership entry pointing at it and stops accepting.
  // Returns the names of the displaced tasks in lexicographic order so the
  // caller can re-place them deterministically. recover_cell re-enables
  // admission on the (now empty) cell.
  std::vector<std::string> crash_cell(std::size_t index);
  void recover_cell(std::size_t index);

  // Resets every cell's controller and forgets all ownership.
  void reset();

 private:
  // Serial-vs-parallel-identical probe of every cell: slot i holds cell
  // i's probe of {task}, or an empty plan for a non-accepting cell.
  std::vector<core::DeploymentPlan> probe_cells(
      const edge::DnnCatalog& catalog, const core::DotTask& task) const;
  // choose_cell; under cost_probe it leaves the per-cell probes in
  // `probes` for the admission to commit.
  std::size_t choose_cell(const edge::DnnCatalog& catalog,
                          const core::DotTask& task,
                          std::vector<core::DeploymentPlan>& probes) const;

  std::vector<EdgeCell> cells_;
  DispatcherOptions options_;
  std::vector<bool> accepting_;  // admission gate per cell (fault state)
  std::unordered_map<std::string, std::size_t> owner_;
};

}  // namespace odn::cluster
