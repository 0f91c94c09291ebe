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
#include <string>
#include <vector>

#include "core/offloadnn_solver.h"
#include "core/optimal_solver.h"
#include "core/solution.h"
#include "edge/resources.h"

namespace odn::core {

class PlanCache;
class SolverCache;
class OffloadnnController;

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
  // Like task_name, it is caller-facing metadata the solve never reads;
  // ~0 = unset.
  std::uint64_t correlation = ~std::uint64_t{0};
};

struct DeploymentPlan {
  DotSolution solution;
  std::vector<TaskPlan> tasks;
  std::vector<edge::BlockIndex> deployed_blocks;  // distinct, newly deployed
  double memory_committed_bytes = 0.0;
  double compute_committed_s = 0.0;
  std::size_t rbs_committed = 0;
  // The controller state the plan was solved against: the planning
  // controller (compared, never dereferenced) and its ledger stamp at the
  // time. commit() accepts the plan only while both still match.
  const OffloadnnController* planned_by = nullptr;
  std::uint32_t planned_at = 0;
};

class OffloadnnController {
 public:
  struct Options {
    bool use_optimal_solver = false;  // exhaustive DOT solve (small scale)
    OffloadnnOptions heuristic{};     // heuristic configuration otherwise
    double alpha = 0.5;
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
  // resources are discounted. Admitted tasks add to the deployment. Solves
  // exactly as probe_incremental does, then commits the plan.
  DeploymentPlan admit_incremental(const edge::DnnCatalog& catalog,
                                   std::vector<DotTask> requests);

  // Dry-run of admit_incremental: solves the same discounted instance and
  // returns the plan admit_incremental would commit, without mutating the
  // controller. The cluster dispatcher's cost_probe placement fans these
  // out across cells (const = safe to probe sibling cells concurrently)
  // and commits the winning cell's probe instead of solving again.
  DeploymentPlan probe_incremental(const edge::DnnCatalog& catalog,
                                   std::vector<DotTask> requests) const;

  // Commits a plan this controller produced (admit's or
  // probe_incremental's): records its admitted tasks as active
  // commitments and rebuilds the ledger. `catalog` supplies block memory.
  // Throws std::logic_error, committing nothing, when the plan was solved
  // by another controller or against an earlier state of this one (any
  // commit, release, reset or radio swap since), because its
  // discounted capacities and free blocks would no longer hold.
  void commit(const DeploymentPlan& plan, const edge::DnnCatalog& catalog);

  // Always nullptr: the plan cache and the clique memo are gone, and the
  // accessors exist only for the benchmark driver (see core/plan_cache.h
  // and core/solver_cache.h).
  const PlanCache* plan_cache() const noexcept { return nullptr; }
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
  // them under the new model. Plans solved under the old radio can no
  // longer be committed.
  void set_radio(const edge::RadioModel& radio) {
    radio_ = radio;
    next_stamp();
  }
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
  // runs the solver and produces the full plan, stamped with the current
  // state. Const — commits nothing.
  DeploymentPlan plan(const edge::DnnCatalog& catalog,
                      std::vector<DotTask> requests, bool incremental) const;
  // Recomputes the ledger and deployed-block list from active_.
  void rebuild_ledger();
  // Advances stamp_ (every state change calls this), clearing the block
  // marks when it wraps.
  void next_stamp();

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
  // within one rebuild. Bumping stamp_ clears every mark at once. The
  // stamp doubles as the state version plans record (planned_at).
  std::vector<std::uint32_t> block_stamp_;
  std::uint32_t stamp_ = 0;
};

}  // namespace odn::core
