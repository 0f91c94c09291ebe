#include "core/offloadnn_solver.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/branch_optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace odn::core {
namespace {

// Tree-traversal accounting. The traversal phases are serial (only the
// per-branch (z, r) optimization fans out), so every count is
// thread-count invariant; sites accumulate locally and publish once per
// solve to keep the hot loops free of atomics.
struct SolverMetrics {
  obs::Counter& solves;
  obs::Counter& vertices_visited;
  obs::Counter& branches_pruned;  // memory-overflow vertex skips
  obs::Counter& cliques_built;    // tree layers ranked per solve
  obs::Counter& beam_branches;    // branches handed to the optimizer

  static SolverMetrics& instance() {
    static obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static SolverMetrics metrics{
        registry.counter("odn_solver_offloadnn_solves_total"),
        registry.counter("odn_solver_offloadnn_vertices_visited_total"),
        registry.counter("odn_solver_offloadnn_branches_pruned_total"),
        registry.counter("odn_solver_offloadnn_cliques_built_total"),
        registry.counter("odn_solver_offloadnn_beam_branches_total")};
    return metrics;
  }
};

// Re-rank a clique copy by the requested ablation ordering.
std::vector<TreeVertex> ordered_clique(std::span<const TreeVertex> clique,
                                       const DotInstance& instance,
                                       CliqueOrdering ordering) {
  std::vector<TreeVertex> vertices(clique.begin(), clique.end());
  switch (ordering) {
    case CliqueOrdering::kInferenceTime:
      // Already the tree invariant.
      break;
    case CliqueOrdering::kMemory:
      std::stable_sort(vertices.begin(), vertices.end(),
                       [](const TreeVertex& a, const TreeVertex& b) {
                         return a.memory_bytes < b.memory_bytes;
                       });
      break;
    case CliqueOrdering::kAccuracy:
      std::stable_sort(vertices.begin(), vertices.end(),
                       [](const TreeVertex& a, const TreeVertex& b) {
                         return a.accuracy > b.accuracy;
                       });
      break;
    case CliqueOrdering::kNone:
      std::stable_sort(vertices.begin(), vertices.end(),
                       [](const TreeVertex& a, const TreeVertex& b) {
                         return a.option_index < b.option_index;
                       });
      break;
  }
  (void)instance;
  return vertices;
}

}  // namespace

OffloadnnSolver::OffloadnnSolver(OffloadnnOptions options)
    : options_(options) {
  if (options_.beam_width == 0)
    throw std::invalid_argument("OffloadnnSolver: beam width must be >= 1");
}

DotSolution OffloadnnSolver::solve(const DotInstance& instance) const {
  ODN_TRACE_SPAN("solver", "solver.offloadnn");
  util::Stopwatch watch;
  SolverMetrics& metrics = SolverMetrics::instance();

  const SolutionTree tree(instance);
  metrics.solves.inc();
  metrics.cliques_built.inc(tree.num_layers());
  DotSolution solution = options_.beam_width == 1
                             ? solve_first_branch(instance, tree)
                             : solve_beam(instance, tree);
  solution.solve_time_s = watch.elapsed_seconds();
  return solution;
}

DotSolution OffloadnnSolver::solve_first_branch(
    const DotInstance& instance, const SolutionTree& tree) const {
  std::vector<BranchChoice> choices(instance.tasks.size());
  std::vector<std::uint32_t> block_use(instance.catalog.block_count(), 0);
  double memory_used = 0.0;
  std::size_t visited = 0;
  std::size_t pruned = 0;

  for (std::size_t layer = 0; layer < tree.num_layers(); ++layer) {
    const std::size_t task_index = tree.layer_task(layer);
    const std::vector<TreeVertex> clique =
        ordered_clique(tree.layer(layer), instance, options_.ordering);

    for (const TreeVertex& vertex : clique) {
      const PathOption& option =
          instance.tasks[task_index].options[vertex.option_index];
      ++visited;
      double memory_delta = 0.0;
      for (const edge::BlockIndex b : option.path.blocks)
        if (block_use[b] == 0)
          memory_delta += instance.block_memory_bytes(b);
      if (memory_used + memory_delta >
          instance.resources.memory_capacity_bytes * (1.0 + 1e-12)) {
        ++pruned;
        continue;  // this vertex would overflow memory; try the next one
      }
      choices[task_index] = vertex.option_index;
      memory_used += memory_delta;
      for (const edge::BlockIndex b : option.path.blocks) ++block_use[b];
      break;  // first-fit: the leftmost feasible vertex wins
    }
  }
  SolverMetrics& metrics = SolverMetrics::instance();
  metrics.vertices_visited.inc(visited);
  metrics.branches_pruned.inc(pruned);
  metrics.beam_branches.inc(1);

  DotSolution solution;
  solution.solver_name = "OffloaDNN";
  solution.branches_explored = 1;

  const BranchOptimizer optimizer(instance);
  const DotEvaluator evaluator(instance);
  solution.decisions = optimizer.optimize(choices);
  solution.cost = evaluator.evaluate(solution.decisions);
  return solution;
}

DotSolution OffloadnnSolver::solve_beam(const DotInstance& instance,
                                        const SolutionTree& tree) const {
  struct PartialBranch {
    std::vector<BranchChoice> choices;
    std::vector<std::uint32_t> block_use;
    double memory_used = 0.0;
    double committed_cost = 0.0;  // training/Ct + inference-time proxy
  };

  PartialBranch root;
  root.choices.assign(instance.tasks.size(), std::nullopt);
  root.block_use.assign(instance.catalog.block_count(), 0);
  std::vector<PartialBranch> beam{std::move(root)};
  std::size_t visited = 0;
  std::size_t pruned = 0;

  for (std::size_t layer = 0; layer < tree.num_layers(); ++layer) {
    const std::size_t task_index = tree.layer_task(layer);
    const std::vector<TreeVertex> clique =
        ordered_clique(tree.layer(layer), instance, options_.ordering);

    std::vector<PartialBranch> expanded;
    for (const PartialBranch& parent : beam) {
      bool extended = false;
      for (const TreeVertex& vertex : clique) {
        const PathOption& option =
            instance.tasks[task_index].options[vertex.option_index];
        ++visited;
        double memory_delta = 0.0;
        double training_delta = 0.0;
        for (const edge::BlockIndex b : option.path.blocks)
          if (parent.block_use[b] == 0) {
            memory_delta += instance.block_memory_bytes(b);
            training_delta += instance.block_training_cost_s(b);
          }
        if (parent.memory_used + memory_delta >
            instance.resources.memory_capacity_bytes * (1.0 + 1e-12)) {
          ++pruned;
          continue;
        }
        PartialBranch child = parent;
        child.choices[task_index] = vertex.option_index;
        child.memory_used += memory_delta;
        child.committed_cost +=
            training_delta / instance.resources.training_budget_s +
            instance.tasks[task_index].spec.request_rate *
                option.inference_time_s /
                instance.resources.compute_capacity_s;
        for (const edge::BlockIndex b : option.path.blocks)
          ++child.block_use[b];
        expanded.push_back(std::move(child));
        extended = true;
        if (expanded.size() >= options_.beam_width * 4) break;
      }
      if (!extended) expanded.push_back(parent);  // task skipped
    }

    std::stable_sort(expanded.begin(), expanded.end(),
                     [](const PartialBranch& a, const PartialBranch& b) {
                       return a.committed_cost < b.committed_cost;
                     });
    if (expanded.size() > options_.beam_width)
      expanded.resize(options_.beam_width);
    beam = std::move(expanded);
  }
  SolverMetrics& metrics = SolverMetrics::instance();
  metrics.vertices_visited.inc(visited);
  metrics.branches_pruned.inc(pruned);
  metrics.beam_branches.inc(beam.size());

  const BranchOptimizer optimizer(instance);
  const DotEvaluator evaluator(instance);

  // The per-branch (z, r) optimizations are independent: they fan out
  // over the pool, and the results are min-reduced in beam order with
  // strict '<', which matches the serial loop's tie-breaking exactly for
  // any thread count.
  struct BranchResult {
    std::vector<TaskDecision> decisions;
    CostBreakdown cost;
  };
  std::vector<BranchResult> optimized(beam.size());
  util::global_parallel_for(beam.size(), [&](std::size_t i) {
    optimized[i].decisions = optimizer.optimize(beam[i].choices);
    optimized[i].cost = evaluator.evaluate(optimized[i].decisions);
  });

  DotSolution best;
  best.solver_name = "OffloaDNN-beam";
  bool have_best = false;
  for (BranchResult& branch : optimized) {
    if (!have_best || branch.cost.objective < best.cost.objective) {
      best.decisions = std::move(branch.decisions);
      best.cost = branch.cost;
      have_best = true;
    }
  }
  if (!have_best) {
    best.decisions.assign(instance.tasks.size(), TaskDecision{});
    best.cost = evaluator.evaluate(best.decisions);
  }
  best.branches_explored = beam.size();
  return best;
}

}  // namespace odn::core
