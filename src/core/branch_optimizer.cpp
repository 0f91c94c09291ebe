#include "core/branch_optimizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace odn::core {
namespace {

constexpr double kEps = 1e-12;

// Per-active-task data for the continuous (z, r) rebalancing stage.
struct ActiveTask {
  std::size_t task_index;
  double priority;
  double per_unit_compute;   // λ_τ · Σc(s)
  double latency_rbs;        // r floor imposed by (1g)
  double rbs_per_ratio;      // k = λ β / B: slice RBs needed per unit z
  double z_cap;              // upper bound on z (cell-size cap, etc.)
};

}  // namespace

BranchOptimizer::BranchOptimizer(const DotInstance& instance)
    : instance_(instance) {
  if (!instance.finalized())
    throw std::logic_error("BranchOptimizer: instance not finalized");
}

std::optional<std::size_t> BranchOptimizer::min_rbs_for_latency(
    const DotTask& task, const PathOption& option) const {
  const double slack = task.spec.max_latency_s - option.inference_time_s;
  if (slack <= 0.0) return std::nullopt;
  const std::size_t rbs = instance_.radio.min_rbs_for_deadline(
      option.input_bits, slack, task.spec.snr_db);
  return std::max<std::size_t>(1, rbs);
}

std::size_t BranchOptimizer::rbs_for_ratio(const DotTask& task,
                                           const PathOption& option,
                                           std::size_t latency_rbs,
                                           double z) const {
  // (1e): z λ β <= B r  =>  r >= z λ β / B.
  const std::size_t rate_rbs = instance_.radio.min_rbs_for_rate(
      z * task.spec.request_rate * option.input_bits, task.spec.snr_db);
  return std::max(latency_rbs, rate_rbs);
}

std::vector<TaskDecision> BranchOptimizer::optimize(
    std::span<const BranchChoice> choices) const {
  if (choices.size() != instance_.tasks.size())
    throw std::invalid_argument("BranchOptimizer: choice count mismatch");

  std::vector<TaskDecision> decisions(instance_.tasks.size());
  const auto& res = instance_.resources;
  const double total_rbs = static_cast<double>(res.total_rbs);
  const double alpha = instance_.alpha;

  // ---- Stage A: activation ------------------------------------------------
  // Decide, in priority order, which tasks are worth activating at all:
  // a task activates when (i) its latency bound is reachable, (ii) its
  // path's new blocks fit in memory, and (iii) the best-case objective
  // gain of admitting it exceeds the one-off training cost of its new
  // blocks. Activation fixes the memory/training commitments; exact
  // admission ratios are settled by stage B.
  double memory_used = 0.0;
  std::vector<std::uint32_t> block_use(instance_.catalog.block_count(), 0);
  std::vector<ActiveTask> active;

  for (const std::size_t t : instance_.priority_order()) {
    const BranchChoice& choice = choices[t];
    if (!choice.has_value()) continue;
    const DotTask& task = instance_.tasks[t];
    const PathOption& option = task.options.at(*choice);
    decisions[t].has_path = true;
    decisions[t].option_index = *choice;

    // (1f): an option below the task's accuracy floor can never be
    // admitted (the tree pre-filters these; enforce anyway for callers
    // that hand-build branches).
    if (option.accuracy + 1e-12 < task.spec.min_accuracy) continue;

    const std::optional<std::size_t> latency_rbs =
        min_rbs_for_latency(task, option);
    if (!latency_rbs || *latency_rbs > res.total_rbs) continue;

    double new_memory = 0.0;
    double new_training = 0.0;
    for (const edge::BlockIndex b : option.path.blocks)
      if (block_use[b] == 0) {
        new_memory += instance_.block_memory_bytes(b);
        new_training += instance_.block_training_cost_s(b);
      }
    if (memory_used + new_memory >
        res.memory_capacity_bytes * (1.0 + 1e-12))
      continue;

    const double per_unit_compute =
        task.spec.request_rate * option.inference_time_s;
    const double bits_per_rb =
        instance_.radio.bits_per_rb_per_second(task.spec.snr_db);
    const double rbs_per_ratio =
        task.spec.request_rate * option.input_bits / bits_per_rb;
    const double z_cap =
        std::min(1.0, total_rbs / std::max(rbs_per_ratio, kEps));

    // Optimistic activation test: even with the whole cell and compute
    // budget available, admitting the task must be able to beat the
    // one-off training cost of its new blocks. Tasks that pass but end up
    // starved are pruned after the continuous stage below.
    const double best_gain =
        alpha * task.spec.priority * z_cap -
        (1.0 - alpha) *
            (z_cap * std::max(static_cast<double>(*latency_rbs),
                              rbs_per_ratio * z_cap) /
                 total_rbs +
             z_cap * per_unit_compute / res.compute_capacity_s +
             new_training / res.training_budget_s);
    if (best_gain <= 0.0) continue;

    memory_used += new_memory;
    for (const edge::BlockIndex b : option.path.blocks) ++block_use[b];
    active.push_back(ActiveTask{
        .task_index = t,
        .priority = task.spec.priority,
        .per_unit_compute = per_unit_compute,
        .latency_rbs = static_cast<double>(*latency_rbs),
        .rbs_per_ratio = rbs_per_ratio,
        .z_cap = z_cap,
    });
  }

  if (active.empty()) return decisions;

  // ---- Stage B: continuous (z, r) optimization ----------------------------
  // With activation fixed, the residual problem is (paper Sec. IV-B) convex
  // in z after relaxing r to r(z) = max(r_lat, k z):
  //   min Σ α(1-z)p + (1-α)(z·r(z)/R + z·λc/C)    (training is sunk)
  //   s.t. Σ z·r(z) <= R, Σ z·λc <= C, 0 <= z <= z_cap.
  // The Lagrangian decomposes per task. On the rate-limited segment
  // (z >= r_lat/k) the RB use is quadratic (k z²), giving the interior
  // optimum z* = a / (2 k b) with
  //   a = α·p - (1-α)·λc/C - ν·λc,   b = (1-α)/R + µ,
  // so partial ratios decay with priority — the Fig. 9 admission shape.
  // µ (radio) and ν (compute) are found by bisection on their constraints.
  auto z_given = [&](const ActiveTask& task, double mu, double nu) {
    const double a = alpha * task.priority -
                     (1.0 - alpha) * task.per_unit_compute /
                         res.compute_capacity_s -
                     nu * task.per_unit_compute;
    const double b = (1.0 - alpha) / total_rbs + mu;
    const double z_knee =
        task.rbs_per_ratio > kEps ? task.latency_rbs / task.rbs_per_ratio
                                  : task.z_cap;

    // Latency-floored segment [0, z_knee]: objective slope a - b·r_lat.
    const double linear_slope = a - b * task.latency_rbs;
    double best = linear_slope > 0.0 ? std::min(z_knee, task.z_cap) : 0.0;

    // Rate-limited segment [z_knee, z_cap]: d/dz (a z - b k z²) = 0 at
    // z = a / (2 k b).
    if (task.z_cap > z_knee && task.rbs_per_ratio > kEps) {
      double interior = a / (2.0 * task.rbs_per_ratio * b);
      interior = std::clamp(interior, z_knee, task.z_cap);
      const double value_best =
          a * best - b * best * std::max(task.latency_rbs,
                                         task.rbs_per_ratio * best);
      const double value_interior =
          a * interior - b * task.rbs_per_ratio * interior * interior;
      if (value_interior > value_best) best = interior;
    }
    return best;
  };

  auto shared_rbs_total = [&](double mu, double nu) {
    double sum = 0.0;
    for (const ActiveTask& task : active) {
      const double z = z_given(task, mu, nu);
      sum += z * std::max(task.latency_rbs, task.rbs_per_ratio * z);
    }
    return sum;
  };
  auto compute_total = [&](double mu, double nu) {
    double sum = 0.0;
    for (const ActiveTask& task : active)
      sum += z_given(task, mu, nu) * task.per_unit_compute;
    return sum;
  };

  auto solve_mu = [&](double nu) {
    if (shared_rbs_total(0.0, nu) <= total_rbs * (1.0 + 1e-9)) return 0.0;
    double lo = 0.0;
    double hi = 1.0;
    while (shared_rbs_total(hi, nu) > total_rbs && hi < 1e9) hi *= 2.0;
    for (int iter = 0; iter < 80; ++iter) {
      const double mid = 0.5 * (lo + hi);
      (shared_rbs_total(mid, nu) > total_rbs ? lo : hi) = mid;
    }
    return hi;
  };

  double nu = 0.0;
  double mu = 0.0;
  // Solve the multipliers, then prune active tasks whose realized net gain
  // is negative (they activated optimistically but the binding constraints
  // starve them below their break-even ratio); repeat until stable. Each
  // round removes at most one task, so the loop is bounded by |active|.
  for (;;) {
    nu = 0.0;
    mu = solve_mu(nu);
    if (compute_total(mu, nu) > res.compute_capacity_s * (1.0 + 1e-9)) {
      double lo = 0.0;
      double hi = 1.0;
      while (compute_total(solve_mu(hi), hi) > res.compute_capacity_s &&
             hi < 1e9)
        hi *= 2.0;
      for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        (compute_total(solve_mu(mid), mid) > res.compute_capacity_s
             ? lo
             : hi) = mid;
      }
      nu = hi;
      mu = solve_mu(nu);
    }

    // Realized net gain per active task, charging each task the training
    // cost of the blocks only it uses among the active set.
    std::size_t worst_index = active.size();
    double worst_gain = 0.0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const ActiveTask& task = active[i];
      const double z = z_given(task, mu, nu);
      double exclusive_training = 0.0;
      const PathOption& option =
          instance_.tasks[task.task_index]
              .options[decisions[task.task_index].option_index];
      for (const edge::BlockIndex b : option.path.blocks)
        if (block_use[b] == 1)
          exclusive_training += instance_.block_training_cost_s(b);
      const double gain =
          alpha * task.priority * z -
          (1.0 - alpha) *
              (z * std::max(task.latency_rbs, task.rbs_per_ratio * z) /
                   total_rbs +
               z * task.per_unit_compute / res.compute_capacity_s +
               exclusive_training / res.training_budget_s);
      if (gain <= 1e-12 && (worst_index == active.size() ||
                            gain < worst_gain)) {
        worst_index = i;
        worst_gain = gain;
      }
    }
    if (worst_index == active.size()) break;

    const ActiveTask& removed = active[worst_index];
    const PathOption& option =
        instance_.tasks[removed.task_index]
            .options[decisions[removed.task_index].option_index];
    for (const edge::BlockIndex b : option.path.blocks) --block_use[b];
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(worst_index));
    if (active.empty()) return decisions;
  }

  // ---- Integer slice sizes + feasibility repair ---------------------------
  double shared_used = 0.0;
  for (const ActiveTask& task : active) {
    const DotTask& dot_task = instance_.tasks[task.task_index];
    const PathOption& option =
        dot_task.options[decisions[task.task_index].option_index];
    double z = z_given(task, mu, nu);
    if (z <= 1e-9) {
      decisions[task.task_index].admission_ratio = 0.0;
      decisions[task.task_index].rbs = 0;
      continue;
    }
    std::size_t rbs = rbs_for_ratio(
        dot_task, option, static_cast<std::size_t>(task.latency_rbs), z);
    decisions[task.task_index].admission_ratio = z;
    decisions[task.task_index].rbs = rbs;
    shared_used += z * static_cast<double>(rbs);
  }

  // Integer rounding of r can push Σ z·r slightly above R. Repair by
  // shaving one slice breakpoint at a time, round-robin from the
  // lowest-priority task upward, so the overflow is spread across the
  // fractional tail instead of zeroing whole tasks.
  while (shared_used > total_rbs * (1.0 + 1e-9)) {
    bool progress = false;
    for (auto it = active.rbegin();
         it != active.rend() && shared_used > total_rbs * (1.0 + 1e-9);
         ++it) {
      TaskDecision& d = decisions[it->task_index];
      if (d.admission_ratio <= 0.0 || d.rbs == 0) continue;
      const double old_use = d.admission_ratio * static_cast<double>(d.rbs);
      const double next_rbs = static_cast<double>(d.rbs) - 1.0;
      if (next_rbs >= it->latency_rbs && it->rbs_per_ratio > kEps) {
        // Snap z to the largest value one fewer RB can serve.
        const double new_z =
            std::min(d.admission_ratio, next_rbs / it->rbs_per_ratio);
        d.admission_ratio = new_z;
        d.rbs = static_cast<std::size_t>(next_rbs);
        shared_used += new_z * next_rbs - old_use;
        progress = true;
      }
    }
    if (progress) continue;
    // No task can shrink its slice (latency floors everywhere): reduce the
    // lowest-priority admitted task's ratio directly, dropping it at zero.
    TaskDecision* victim = nullptr;
    const ActiveTask* victim_task = nullptr;
    for (auto it = active.rbegin(); it != active.rend(); ++it) {
      if (decisions[it->task_index].admission_ratio > 0.0) {
        victim = &decisions[it->task_index];
        victim_task = &*it;
        break;
      }
    }
    if (!victim) break;  // nothing admitted; (1d) trivially holds
    const double overflow = shared_used - total_rbs;
    const double reduce = std::min(
        victim->admission_ratio,
        overflow / std::max(1.0, static_cast<double>(victim->rbs)));
    victim->admission_ratio -= reduce;
    shared_used -= reduce * static_cast<double>(victim->rbs);
    if (victim->admission_ratio <= 1e-9) {
      shared_used -=
          victim->admission_ratio * static_cast<double>(victim->rbs);
      victim->admission_ratio = 0.0;
      victim->rbs = 0;
    }
    (void)victim_task;
  }

  return decisions;
}

}  // namespace odn::core
