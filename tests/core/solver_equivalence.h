// Differential equivalence harness for the warm-start/caching layer
// (DESIGN.md §8).
//
// The contract under test: every cached or warm-started code path returns
// results BIT-IDENTICAL to a cold solve — caches change speed, never
// bytes. The harness renders plans and solutions to hex strings in which
// every double appears as its raw 64-bit pattern (no decimal formatting,
// no tolerance), and drives a warm controller (plan cache on, the
// default) and a cold controller (plan cache off) through the same seeded
// churn sequence, asserting byte equality at every step. solve_time_s is
// the one deliberately excluded field — it is wall-clock, the only output
// the cache is allowed to change.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/dot_problem.h"
#include "core/plan_cache.h"
#include "core/solution.h"
#include "edge/resources.h"
#include "fuzz_instances.h"
#include "invariant_check.h"
#include "util/rng.h"

namespace odn::testing {

inline void put_u64(std::string& out, std::uint64_t value) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4)
    out.push_back(kHex[(value >> shift) & 0xF]);
  out.push_back('.');
}

// The raw bit pattern: 0.0 vs -0.0 and every NaN payload are distinct.
inline void put_f64(std::string& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

inline void put_bool(std::string& out, bool value) {
  out.push_back(value ? 'T' : 'F');
  out.push_back('.');
}

inline std::string serialize_cost(const core::CostBreakdown& cost) {
  std::string out;
  put_f64(out, cost.objective);
  put_f64(out, cost.weighted_admission);
  put_f64(out, cost.weighted_rejection);
  put_f64(out, cost.training_cost_s);
  put_f64(out, cost.training_fraction);
  put_f64(out, cost.radio_fraction);
  put_f64(out, cost.inference_compute_s);
  put_f64(out, cost.inference_fraction);
  put_f64(out, cost.memory_bytes);
  put_f64(out, cost.memory_fraction);
  put_u64(out, cost.admitted_tasks);
  put_u64(out, cost.fully_admitted_tasks);
  put_u64(out, cost.rbs_allocated);
  return out;
}

// Everything except solve_time_s (wall-clock; the only field warm paths
// may change). branches_explored is included: a plan-cache hit must
// replay the populating run's count exactly.
inline std::string serialize_solution(const core::DotSolution& solution) {
  std::string out = solution.solver_name + "|";
  put_u64(out, solution.decisions.size());
  for (const core::TaskDecision& decision : solution.decisions) {
    put_bool(out, decision.has_path);
    put_u64(out, decision.option_index);
    put_f64(out, decision.admission_ratio);
    put_u64(out, decision.rbs);
  }
  out += serialize_cost(solution.cost);
  put_u64(out, solution.branches_explored);
  return out;
}

inline std::string serialize_task_plan(const core::TaskPlan& task) {
  std::string out = task.task_name + "|";
  put_bool(out, task.admitted);
  put_f64(out, task.admission_ratio);
  put_f64(out, task.admitted_rate);
  put_u64(out, task.slice_rbs);
  put_u64(out, task.blocks.size());
  for (const edge::BlockIndex b : task.blocks) put_u64(out, b);
  put_f64(out, task.expected_latency_s);
  put_f64(out, task.latency_bound_s);
  put_f64(out, task.accuracy);
  put_f64(out, task.inference_time_s);
  put_f64(out, task.input_bits);
  return out;
}

inline std::string serialize_plan(const core::DeploymentPlan& plan) {
  std::string out = serialize_solution(plan.solution);
  put_u64(out, plan.tasks.size());
  for (const core::TaskPlan& task : plan.tasks)
    out += serialize_task_plan(task);
  put_u64(out, plan.deployed_blocks.size());
  for (const edge::BlockIndex b : plan.deployed_blocks) put_u64(out, b);
  put_f64(out, plan.memory_committed_bytes);
  put_f64(out, plan.compute_committed_s);
  put_u64(out, plan.rbs_committed);
  return out;
}

// Committed-state digest: after every step the warm and cold controllers
// must hold bit-identical ledgers and deployments.
inline std::string serialize_state(const core::OffloadnnController& c) {
  std::string out;
  put_f64(out, c.ledger().compute_used_s());
  put_f64(out, c.ledger().memory_used_bytes());
  put_u64(out, c.ledger().rbs_used());
  put_u64(out, c.deployed_blocks().size());
  for (const edge::BlockIndex b : c.deployed_blocks()) put_u64(out, b);
  for (const std::string& name : c.active_tasks()) out += name + "|";
  return out;
}

struct ChurnConfig {
  std::uint64_t seed = 1;
  std::size_t steps = 200;
  bool use_optimal_solver = false;
  // Heuristic beam width (1 = the paper's first branch); > 1 runs the
  // parallel per-branch (z, r) fan-out with the caches on.
  std::size_t beam_width = 1;
  // Mid-sequence radio swap (fault churn): exercises key invalidation —
  // a changed radio must never hit a pre-change cache entry.
  bool swap_radio = true;
};

// One seeded churn sequence over a fuzzed world: admissions, departures
// and dry-run probes in random order, every result compared byte-for-byte
// between the warm (plan cache on) and cold (plan cache off) controllers,
// plus constraint invariants on every warm plan. Repeated probes re-run on
// the warm controller must also replay their own bytes (the plan-cache hit
// path). `warm_plans`, when given, receives the warm controller's
// plan-cache counters after the last step.
inline void run_churn_differential(
    const ChurnConfig& config, core::PlanCacheStats* warm_plans = nullptr) {
  const core::DotInstance world =
      core::testing::random_instance(config.seed);
  core::OffloadnnController::Options warm_options;
  warm_options.use_optimal_solver = config.use_optimal_solver;
  warm_options.heuristic.beam_width = config.beam_width;
  warm_options.alpha = world.alpha;
  core::OffloadnnController::Options cold_options = warm_options;
  cold_options.cache.plan_cache = false;

  core::OffloadnnController warm(world.resources, world.radio, warm_options);
  core::OffloadnnController cold(world.resources, world.radio, cold_options);

  util::Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<std::string> active;

  const auto fresh_task = [&](const std::string& name) {
    core::DotTask task =
        world.tasks[rng.uniform_int(
            0, static_cast<std::int64_t>(world.tasks.size()) - 1)];
    task.spec.name = name;
    // Perturb the spec so the sequence mixes cache hits (repeated shapes
    // under different names — the keys are name-blind) with misses.
    if (rng.bernoulli(0.5))
      task.spec.priority = rng.uniform(0.05, 1.0);
    if (rng.bernoulli(0.3))
      task.spec.request_rate = rng.uniform(0.5, 10.0);
    return task;
  };

  for (std::size_t step = 0; step < config.steps; ++step) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << config.seed << ", step " << step);
    const double roll = rng.uniform(0.0, 1.0);

    if (config.swap_radio && step == config.steps / 2) {
      const edge::RadioModel swapped = edge::RadioModel::lte();
      warm.set_radio(swapped);
      cold.set_radio(swapped);
    }

    if (roll < 0.25 && !active.empty()) {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(active.size()) - 1));
      const std::string name = active[pick];
      ASSERT_EQ(warm.release(name), cold.release(name));
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 0.55) {
      const std::vector<core::DotTask> requests{
          fresh_task("probe-" + std::to_string(step))};
      const core::DeploymentPlan a =
          warm.probe_incremental(world.catalog, requests);
      const core::DeploymentPlan b =
          cold.probe_incremental(world.catalog, requests);
      ASSERT_EQ(serialize_plan(a), serialize_plan(b)) << "warm != cold probe";
      // Replay: the second warm probe answers from the plan cache.
      const core::DeploymentPlan a2 =
          warm.probe_incremental(world.catalog, requests);
      ASSERT_EQ(serialize_plan(a2), serialize_plan(a)) << "probe not pure";
      check_plan_invariants(a, requests, world.catalog, world.resources,
                            warm.radio(), "warm probe");
    } else {
      const std::string name = "task-" + std::to_string(step);
      const std::vector<core::DotTask> requests{fresh_task(name)};
      const core::DeploymentPlan a =
          warm.admit_incremental(world.catalog, requests);
      const core::DeploymentPlan b =
          cold.admit_incremental(world.catalog, requests);
      ASSERT_EQ(serialize_plan(a), serialize_plan(b)) << "warm != cold admit";
      check_plan_invariants(a, requests, world.catalog, world.resources,
                            warm.radio(), "warm admit");
      if (a.tasks.size() == 1 && a.tasks[0].admitted) active.push_back(name);
    }

    ASSERT_EQ(serialize_state(warm), serialize_state(cold))
        << "committed state diverged";
  }
  if (warm_plans != nullptr) *warm_plans = warm.plan_cache()->stats();
}

}  // namespace odn::testing
