// Cluster-wide admission front door: owns the cells, picks a target cell
// per placement policy, and spills rejected tasks over to the remaining
// cells (fixed index order) before the caller's retry policy kicks in.
//
// Determinism contract: admission outcomes depend only on (cells, policy,
// request) — the cost_probe fan-out writes each cell's probe into its own
// slot and reduces serially in cell order with strict `<` tie-breaking, so
// ODN_THREADS never changes which cell wins.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cell.h"
#include "cluster/placement.h"
#include "core/controller.h"
#include "edge/dnn_catalog.h"
#include "edge/radio.h"

namespace odn::cluster {

inline constexpr std::size_t kNoCell = std::numeric_limits<std::size_t>::max();

struct DispatcherOptions {
  PlacementPolicy policy = PlacementPolicy::kLeastLoaded;
  // When the preferred cell rejects, try every remaining cell in fixed
  // index order before reporting the rejection.
  bool spillover = true;
  // cost_probe only: fan the per-cell probes out on the global thread
  // pool. Bit-identical to the serial path (the golden-report ctest pins
  // it); false forces the serial loop, mostly for differential testing.
  bool parallel_probe = true;
  // Shared cross-cell plan cache (DESIGN.md §8): one core::PlanCache
  // replaces every cell's private one, so identical probe sub-instances
  // collapse across sibling cells (probes are pure — an exact-key hit is
  // bit-identical to solving). false disables plan caching on every cell,
  // giving a uniform cold baseline for differential runs.
  bool plan_cache = true;
  std::size_t plan_cache_capacity = 1024;
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

  // The shared cross-cell plan cache (nullptr when options disabled it).
  // Survives reset()/crash_cell: entries are keyed by the cells' full
  // committed state, so stale keys can never falsely hit.
  const std::shared_ptr<core::PlanCache>& plan_cache() const noexcept {
    return plan_cache_;
  }

  // The placement policy's preferred cell for `task` given current load
  // (no state change; exposed for tests and for migration targeting). The
  // optional `digest` (must equal core::catalog_digest(catalog)) lets the
  // cost_probe fan-out skip re-encoding the catalog; admit() computes it
  // once per admission and threads it through.
  std::size_t choose_cell(const edge::DnnCatalog& catalog,
                          const core::DotTask& task,
                          const core::Fingerprint* digest = nullptr) const;

  // Full admission: preferred cell first, then spillover. Records
  // ownership on success. Task names must be cluster-unique. The optional
  // `digest` (must equal core::catalog_digest(catalog)) spares the
  // per-admission O(blocks) catalog encode the cache keys otherwise pay —
  // callers that admit many tasks against one fixed catalog compute it
  // once up front.
  AdmissionOutcome admit(const edge::DnnCatalog& catalog,
                         const core::DotTask& task,
                         const core::Fingerprint* digest = nullptr);

  // Scheduling primitive (src/sched/): commits a joint request set on one
  // specific cell — no placement policy, no spillover — and records
  // ownership of every admitted task. The preemption ladder needs this so
  // a downgrade commit {arrival, re-shaped victims} lands atomically on
  // exactly the cell whose state it probed. Request names must not be
  // currently owned; the cell must be accepting.
  core::DeploymentPlan admit_on(std::size_t index,
                                const edge::DnnCatalog& catalog,
                                std::vector<core::DotTask> requests,
                                const core::Fingerprint* digest = nullptr);

  // Releases the named task from its owning cell; returns the cell index
  // or kNoCell when the task is unknown.
  std::size_t release(const std::string& task_name);

  // Owning cell of an admitted task (kNoCell when unknown).
  std::size_t owner_of(const std::string& task_name) const;

  // Migration primitive: probe `target`, and only when the probe admits,
  // release the task at its current cell and re-admit it on `target`
  // (probe == admit on the unchanged cell state, so the move can never
  // strand the task). Returns true and updates ownership on success;
  // false leaves everything untouched. `digest` as in admit().
  bool migrate(const edge::DnnCatalog& catalog, const core::DotTask& task,
               const std::string& task_name, std::size_t target,
               core::TaskPlan* migrated_plan = nullptr,
               const core::Fingerprint* digest = nullptr);

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
  // Serial-vs-parallel-identical probe of every cell; slot i holds cell
  // i's admitted objective (+inf when the probe rejects). With the shared
  // plan cache on, probes are first deduplicated by exact cache key — the
  // cache itself is only ever touched serially; only cache-missing
  // distinct sub-instances fan out to the pool.
  std::vector<double> probe_objectives(const edge::DnnCatalog& catalog,
                                       const core::DotTask& task,
                                       const core::Fingerprint* digest) const;

  std::vector<EdgeCell> cells_;
  DispatcherOptions options_;
  std::vector<bool> accepting_;  // admission gate per cell (fault state)
  std::unordered_map<std::string, std::size_t> owner_;
  std::shared_ptr<core::PlanCache> plan_cache_;
};

}  // namespace odn::cluster
