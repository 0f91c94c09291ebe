// Differential equivalence harness for the controller (DESIGN.md §8).
//
// The contract under test: the same inputs give BIT-IDENTICAL plans
// whatever the thread count. The harness renders plans and solutions to
// hex strings in which every double appears as its raw 64-bit pattern (no
// decimal formatting, no tolerance), and drives one controller through a
// seeded churn sequence serially and on four threads, asserting byte
// equality at every step. solve_time_s is the one deliberately excluded
// field — it is wall-clock.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/dot_problem.h"
#include "core/solution.h"
#include "edge/resources.h"
#include "fuzz_instances.h"
#include "invariant_check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

// Everything except solve_time_s (wall-clock; the only field that may
// differ between equal solves). branches_explored is included.
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

// Committed-state digest: after every step the serial and parallel runs
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
  // parallel per-branch (z, r) fan-out.
  std::size_t beam_width = 1;
  // Mid-sequence radio swap (fault churn): later solves must see the new
  // radio.
  bool swap_radio = true;
  // Admissions commit the plan a probe of the same request just solved
  // (the cost_probe hand-off) instead of calling admit_incremental.
  bool hand_off = false;
};

// One seeded churn sequence over a fuzzed world on one controller, at the
// current thread count: admissions, departures and dry-run probes in
// random order. Every plan must pass check_dot_invariants, a repeated
// probe must replay its own bytes, and the committed state must re-derive
// from the admitted plans (no orphaned resources). Returns one transcript
// entry per step: the step's plan or release verdict, then the committed
// state.
inline std::vector<std::string> churn_transcript(const ChurnConfig& config) {
  const core::DotInstance world =
      core::testing::random_instance(config.seed);
  core::OffloadnnController::Options options;
  options.use_optimal_solver = config.use_optimal_solver;
  options.heuristic.beam_width = config.beam_width;
  options.alpha = world.alpha;
  core::OffloadnnController controller(world.resources, world.radio,
                                       options);

  util::Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<std::pair<std::string, core::TaskPlan>> active;
  std::vector<std::string> transcript;

  const auto fresh_task = [&](const std::string& name) {
    core::DotTask task =
        world.tasks[rng.uniform_int(
            0, static_cast<std::int64_t>(world.tasks.size()) - 1)];
    task.spec.name = name;
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
    std::string entry;

    if (config.swap_radio && step == config.steps / 2)
      controller.set_radio(edge::RadioModel::lte());

    if (roll < 0.25 && !active.empty()) {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(active.size()) - 1));
      const std::string name = active[pick].first;
      EXPECT_TRUE(controller.release(name)) << name;
      entry = "release:" + name + ";";
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 0.55) {
      const std::vector<core::DotTask> requests{
          fresh_task("probe-" + std::to_string(step))};
      const core::DeploymentPlan probe =
          controller.probe_incremental(world.catalog, requests);
      entry = serialize_plan(probe);
      EXPECT_EQ(serialize_plan(
                    controller.probe_incremental(world.catalog, requests)),
                entry)
          << "probe not pure";
      check_plan_invariants(probe, requests, world.catalog, world.resources,
                            controller.radio(), "probe");
    } else {
      const std::string name = "task-" + std::to_string(step);
      const std::vector<core::DotTask> requests{fresh_task(name)};
      core::DeploymentPlan plan;
      if (config.hand_off) {
        plan = controller.probe_incremental(world.catalog, requests);
        controller.commit(plan, world.catalog);
      } else {
        plan = controller.admit_incremental(world.catalog, requests);
      }
      entry = serialize_plan(plan);
      check_plan_invariants(plan, requests, world.catalog, world.resources,
                            controller.radio(), "admit");
      if (plan.tasks.size() == 1 && plan.tasks[0].admitted)
        active.emplace_back(name, plan.tasks[0]);
    }

    std::vector<std::pair<std::string, const core::TaskPlan*>> served;
    for (const auto& [name, plan] : active) served.emplace_back(name, &plan);
    check_no_orphaned_resources(controller, served, world.catalog);
    transcript.push_back(entry + serialize_state(controller));
  }
  return transcript;
}

// The churn above serially and on four threads: the two transcripts must
// agree byte for byte at every step. Leaves the pool at four threads.
inline void run_churn_differential(const ChurnConfig& config) {
  util::set_thread_count(1);
  const std::vector<std::string> serial = churn_transcript(config);
  util::set_thread_count(4);
  const std::vector<std::string> parallel = churn_transcript(config);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t step = 0; step < serial.size(); ++step)
    ASSERT_EQ(parallel[step], serial[step])
        << "seed " << config.seed << ": serial and 4-thread churns diverge "
        << "at step " << step;
}

// The churn above at the current thread count, once with admissions
// through admit_incremental and once through the probe hand-off: the two
// transcripts must agree byte for byte at every step.
inline void run_hand_off_differential(ChurnConfig config) {
  config.hand_off = false;
  const std::vector<std::string> solved = churn_transcript(config);
  config.hand_off = true;
  const std::vector<std::string> handed_off = churn_transcript(config);
  ASSERT_EQ(handed_off.size(), solved.size());
  for (std::size_t step = 0; step < solved.size(); ++step)
    ASSERT_EQ(handed_off[step], solved[step])
        << "seed " << config.seed << ": hand-off and admit_incremental "
        << "churns diverge at step " << step;
}

}  // namespace odn::testing
