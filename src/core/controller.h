// The OffloaDNN controller — the Fig. 4 workflow.
//
// Mobile devices submit task admission requests (step 1); the controller
// pulls DNN block availability and resource capacities (step 2), solves the
// DOT problem (step 3), allocates radio slices and computing resources
// (step 4), deploys the selected DNN blocks (step 5) and reports the
// admitted task rates back to the devices (step 6). Step 7 (input
// transmission and inference) is carried out by the emulator in odn_sim.
//
// The controller also supports the paper's dynamic extension (Sec. III-B,
// final remark): newly requested tasks can be admitted incrementally by
// treating already-deployed blocks as free (zero memory and training cost)
// and discounting the committed capacities.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/fingerprint.h"
#include "core/offloadnn_solver.h"
#include "core/optimal_solver.h"
#include "core/solution.h"
#include "edge/resources.h"

namespace odn::core {

class PlanCache;
class SolverCache;

// The plan cache, the one cache in front of the solvers (DESIGN.md §8).
// On by default: a hit returns bytes identical to a cold solve (the
// differential suite enforces this), so the only observable differences
// are speed and the odn_plan_cache_* metrics.
struct CacheOptions {
  // Memoize whole DeploymentPlans keyed by the exact (state, request-set)
  // encoding. The cluster dispatcher replaces the per-controller cache
  // with one shared across cells.
  bool plan_cache = true;
  std::size_t plan_capacity = 256;
};

struct TaskPlan {
  std::string task_name;
  bool admitted = false;
  double admission_ratio = 0.0;
  double admitted_rate = 0.0;  // z_τ · λ_τ, images/s the device may send
  std::size_t slice_rbs = 0;
  std::vector<edge::BlockIndex> blocks;  // execution path at the edge
  double expected_latency_s = 0.0;       // model-predicted end-to-end
  double latency_bound_s = 0.0;          // the task's L_τ requirement
  double accuracy = 0.0;
  double inference_time_s = 0.0;         // Σ c(s) over the path
  double input_bits = 0.0;               // β(q) per image
  // Flight-recorder correlation id carried from TaskSpec.correlation.
  // Like task_name, it is caller-facing metadata: plan-cache keys are
  // blind to it and cache hits rewrite it positionally; ~0 = unset.
  std::uint64_t correlation = ~std::uint64_t{0};
};

struct DeploymentPlan {
  DotSolution solution;
  std::vector<TaskPlan> tasks;
  std::vector<edge::BlockIndex> deployed_blocks;  // distinct, newly deployed
  double memory_committed_bytes = 0.0;
  double compute_committed_s = 0.0;
  std::size_t rbs_committed = 0;
};

class OffloadnnController {
 public:
  struct Options {
    bool use_optimal_solver = false;  // exhaustive DOT solve (small scale)
    OffloadnnOptions heuristic{};     // heuristic configuration otherwise
    double alpha = 0.5;
    CacheOptions cache{};
  };

  OffloadnnController(const edge::EdgeResources& resources,
                      edge::RadioModel radio, Options options);
  OffloadnnController(const edge::EdgeResources& resources,
                      edge::RadioModel radio);

  // One-shot admission: solve DOT for the request set against the full
  // capacities, commit the allocation, and return the plan. Resets any
  // previous deployment.
  DeploymentPlan admit(const edge::DnnCatalog& catalog,
                       std::vector<DotTask> requests);

  // Incremental admission: already-deployed blocks cost nothing, committed
  // resources are discounted. Admitted tasks add to the deployment. The
  // optional `digest` (must equal catalog_digest(catalog)) saves the
  // O(blocks) catalog encode the cache keys otherwise pay — callers that
  // issue many admissions against one catalog compute it once.
  DeploymentPlan admit_incremental(const edge::DnnCatalog& catalog,
                                   std::vector<DotTask> requests,
                                   const Fingerprint* digest = nullptr);

  // Dry-run of admit_incremental: solves the same discounted instance and
  // returns the plan admit_incremental would commit, without mutating the
  // controller. The cluster dispatcher's cost_probe placement fans these
  // out across cells (const = safe to probe sibling cells concurrently);
  // determinism follows from the solve being the exact code path the
  // subsequent admission runs. `digest` as in admit_incremental.
  DeploymentPlan probe_incremental(const edge::DnnCatalog& catalog,
                                   std::vector<DotTask> requests,
                                   const Fingerprint* digest = nullptr) const;

  // probe_incremental with the plan cache bypassed: a cold solve, so it
  // builds no key and needs no digest. The cluster dispatcher solves
  // shared-cache misses through this in parallel, keeping every access to
  // the shared cache itself serial.
  DeploymentPlan probe_incremental_uncached(
      const edge::DnnCatalog& catalog, std::vector<DotTask> requests) const;

  // Canonical cache key of the incremental sub-instance `requests` against
  // the current committed state (options, discounted capacities, ledger
  // usage, deployed blocks, radio, catalog digest, request set). Equal
  // keys guarantee bit-identical probe results; the cluster dispatcher
  // groups per-cell probes by this key to deduplicate the fan-out. The
  // optional precomputed `digest` (must be catalog_digest(catalog)) lets
  // that fan-out encode the catalog once instead of once per cell.
  std::string probe_cache_key(const edge::DnnCatalog& catalog,
                              const std::vector<DotTask>& requests,
                              const Fingerprint* digest = nullptr) const;
  // The same key from a request set already encoded by encode_task_set, so
  // a fan-out over many cells encodes its requests once. The bytes equal
  // the overload above's for the same requests.
  std::string probe_cache_key(const edge::DnnCatalog& catalog,
                              std::string_view encoded_requests,
                              const Fingerprint& digest) const;

  // Replaces the plan cache (by default a private per-controller one) —
  // the dispatcher points every cell at one shared instance so identical
  // probes collapse across cells. nullptr disables plan caching.
  void set_plan_cache(std::shared_ptr<PlanCache> cache);
  const std::shared_ptr<PlanCache>& plan_cache() const noexcept {
    return plan_cache_;
  }
  // Always nullptr: the clique memo is gone, and the accessor exists only
  // for the benchmark driver (see core/solver_cache.h).
  const SolverCache* solver_cache() const noexcept { return nullptr; }

  // Task departure (dynamic churn): releases the task's radio slice and
  // compute commitment and undeploys blocks no other active task uses.
  // Returns false when no active task has that name.
  bool release(const std::string& task_name);

  // Names of the currently active (admitted, not released) tasks.
  std::vector<std::string> active_tasks() const;

  // Swaps the radio model used by future solves (fault injection: a
  // degraded or restored cell radio). Existing commitments are untouched —
  // the caller re-validates active tasks by releasing and re-admitting
  // them under the new model.
  void set_radio(const edge::RadioModel& radio) { radio_ = radio; }
  const edge::RadioModel& radio() const noexcept { return radio_; }

  const edge::ResourceLedger& ledger() const noexcept { return ledger_; }
  const std::vector<edge::BlockIndex>& deployed_blocks() const noexcept {
    return deployed_blocks_;
  }

  void reset();

 private:
  // Per-task resource commitment, recorded at admission so departures can
  // return exactly what the task took.
  struct TaskCommitment {
    std::string name;
    double compute_s = 0.0;    // z λ Σc
    double shared_rbs = 0.0;   // z · r
    std::vector<edge::BlockIndex> blocks;
  };

  // Solve-and-assemble phase: builds the (possibly discounted) instance,
  // runs the solver and produces the full plan. Const — commits nothing
  // (the plan cache it warms is an accelerator whose hits are bit-identical
  // to cold solves, so probe results stay semantically const).
  DeploymentPlan plan(const edge::DnnCatalog& catalog,
                      std::vector<DotTask> requests, bool incremental,
                      bool use_plan_cache,
                      const Fingerprint* digest = nullptr) const;
  // The canonical encoding plan() keys its cache on: exact in every
  // component except the catalog, which enters as its 128-bit digest
  // (recomputed from `catalog` unless the caller passes it in).
  std::string plan_key(const edge::DnnCatalog& catalog,
                       const std::vector<DotTask>& requests, bool incremental,
                       const Fingerprint* digest = nullptr) const;
  // The controller-state part of a plan key: everything before the
  // encoded request set, ending with the catalog's block count.
  void write_key_prefix(CanonicalWriter& writer,
                        const edge::DnnCatalog& catalog,
                        const Fingerprint& catalog_fp,
                        bool incremental) const;
  // Commitment phase: records the plan's admitted tasks as active
  // commitments and rebuilds the ledger. `catalog` supplies block memory.
  void commit(const DeploymentPlan& plan, const edge::DnnCatalog& catalog);
  // Recomputes the ledger and deployed-block list from active_.
  void rebuild_ledger();

  edge::EdgeResources resources_;
  edge::RadioModel radio_;
  Options options_;
  edge::ResourceLedger ledger_;
  std::vector<edge::BlockIndex> deployed_blocks_;
  std::vector<TaskCommitment> active_;
  // Memory of every block ever seen at admission, indexed by block (release
  // needs it after the admitting catalog has gone out of scope).
  std::vector<double> block_memory_;
  // rebuild_ledger's "counted already" marks: block_stamp_[b] == stamp_
  // within one rebuild. Bumping stamp_ clears every mark at once.
  std::vector<std::uint32_t> block_stamp_;
  std::uint32_t stamp_ = 0;
  // The solve accelerator (DESIGN.md §8), mutable behind const probes. It
  // survives reset(): entries are keyed by the full state, so stale keys
  // can never falsely hit — warmth only ever changes speed, not bits.
  mutable std::shared_ptr<PlanCache> plan_cache_;
};

}  // namespace odn::core
