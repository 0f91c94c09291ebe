#include "core/optimal_solver.h"

#include <stdexcept>
#include <vector>

#include "core/branch_optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fmt.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace odn::core {
namespace {

// Exhaustive-traversal accounting. Every counter matches the serial
// traversal for any ODN_THREADS.
struct OptimalMetrics {
  obs::Counter& solves;
  obs::Counter& vertices_visited;
  obs::Counter& branches_explored;  // complete leaves evaluated

  static OptimalMetrics& instance() {
    static obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static OptimalMetrics metrics{
        registry.counter("odn_solver_optimal_solves_total"),
        registry.counter("odn_solver_optimal_vertices_visited_total"),
        registry.counter("odn_solver_optimal_branches_explored_total")};
    return metrics;
  }
};

// DFS state shared across the recursion.
struct DfsContext {
  const DotInstance& instance;
  const SolutionTree& tree;
  const BranchOptimizer& optimizer;
  const DotEvaluator& evaluator;

  std::vector<BranchChoice> choices;       // per task index
  std::vector<std::uint32_t> block_use;    // refcount per catalog block
  double memory_used = 0.0;

  double best_objective = 0.0;
  bool have_best = false;
  std::vector<TaskDecision> best_decisions;
  std::size_t branches = 0;
  std::size_t visited = 0;  // tree vertices applied (feasible or not)
};

void dfs(DfsContext& ctx, std::size_t layer_index);

// One vertex of layer `layer_index`: apply it (count newly used blocks
// once), descend when it fits the memory capacity, then undo. Both the
// recursion and the solver's first-layer fan-out take this step.
void visit_vertex(DfsContext& ctx, std::size_t layer_index,
                  const TreeVertex& vertex) {
  const std::size_t task_index = ctx.tree.layer_task(layer_index);
  const PathOption& option =
      ctx.instance.tasks[task_index].options[vertex.option_index];
  ++ctx.visited;

  double memory_delta = 0.0;
  for (const edge::BlockIndex b : option.path.blocks)
    if (ctx.block_use[b]++ == 0)
      memory_delta += ctx.instance.block_memory_bytes(b);
  ctx.memory_used += memory_delta;

  // The paper's traversal rule: halt the branch when cumulative memory
  // exceeds M.
  if (ctx.memory_used <=
      ctx.instance.resources.memory_capacity_bytes * (1.0 + 1e-12)) {
    ctx.choices[task_index] = vertex.option_index;
    dfs(ctx, layer_index + 1);
  }

  ctx.memory_used -= memory_delta;
  for (const edge::BlockIndex b : option.path.blocks) --ctx.block_use[b];
}

void dfs(DfsContext& ctx, std::size_t layer_index) {
  if (layer_index == ctx.tree.num_layers()) {
    ++ctx.branches;
    const std::vector<TaskDecision> decisions =
        ctx.optimizer.optimize(ctx.choices);
    const CostBreakdown cost = ctx.evaluator.evaluate(decisions);
    if (!ctx.have_best || cost.objective < ctx.best_objective) {
      ctx.have_best = true;
      ctx.best_objective = cost.objective;
      ctx.best_decisions = decisions;
    }
    return;
  }

  const std::size_t task_index = ctx.tree.layer_task(layer_index);

  // Explicit skip child: the task is rejected on this subtree. This
  // completes the search space relative to the paper's traversal (which
  // reaches rejection only through z -> 0), so the reported optimum is
  // never worse than the paper's.
  ctx.choices[task_index] = std::nullopt;
  dfs(ctx, layer_index + 1);

  for (const TreeVertex& vertex : ctx.tree.layer(layer_index))
    visit_vertex(ctx, layer_index, vertex);
  ctx.choices[task_index] = std::nullopt;
}

// Fresh DFS state for one top-level subtree of the parallel fan-out.
DfsContext make_context(const DotInstance& instance, const SolutionTree& tree,
                        const BranchOptimizer& optimizer,
                        const DotEvaluator& evaluator) {
  return DfsContext{.instance = instance,
                    .tree = tree,
                    .optimizer = optimizer,
                    .evaluator = evaluator,
                    .choices =
                        std::vector<BranchChoice>(instance.tasks.size()),
                    .block_use = std::vector<std::uint32_t>(
                        instance.catalog.block_count(), 0),
                    .memory_used = 0.0,
                    .best_objective = 0.0,
                    .have_best = false,
                    .best_decisions = {},
                    .branches = 0};
}

// Minimum subtree branch-count estimate at which the first-layer fan-out
// is worth dispatching to the pool; below it the serial DFS wins outright.
constexpr double kParallelBranchThreshold = 64.0;

}  // namespace

OptimalSolver::OptimalSolver(OptimalSolverOptions options)
    : options_(options) {}

DotSolution OptimalSolver::solve(const DotInstance& instance) const {
  ODN_TRACE_SPAN("solver", "solver.optimal");
  util::Stopwatch watch;

  const SolutionTree tree(instance);

  // Include the skip child in the size estimate.
  double branches = 1.0;
  for (std::size_t l = 0; l < tree.num_layers(); ++l)
    branches *= static_cast<double>(tree.layer(l).size() + 1);
  if (branches > options_.max_branches)
    throw std::runtime_error(util::fmt(
        "OptimalSolver: ~{:.3g} branches exceed the {:.3g} safety limit — "
        "use OffloadnnSolver for large instances",
        branches, options_.max_branches));

  const BranchOptimizer optimizer(instance);
  const DotEvaluator evaluator(instance);

  // First-layer fan-out: one subtree per top-level child of the solution
  // tree — the explicit skip child (index 0) plus one child per vertex of
  // the first clique. Each subtree runs the unchanged serial DFS on its own
  // context; the per-subtree minima are then reduced in branch-index order
  // with a strict '<', which reproduces the serial incumbent rule exactly
  // (the first branch in DFS order achieving the minimum wins). Results are
  // therefore bit-identical to the serial traversal for any thread count.
  const std::size_t fanout =
      tree.num_layers() == 0 ? 0 : tree.layer(0).size() + 1;
  const bool parallel = fanout >= 2 && util::global_thread_count() > 1 &&
                        !util::ThreadPool::in_parallel_region() &&
                        branches >= kParallelBranchThreshold;

  double best_objective = 0.0;
  bool have_best = false;
  std::vector<TaskDecision> best_decisions;
  std::size_t branches_explored = 0;
  std::size_t vertices_visited = 0;

  if (!parallel) {
    DfsContext ctx = make_context(instance, tree, optimizer, evaluator);
    dfs(ctx, 0);
    have_best = ctx.have_best;
    best_objective = ctx.best_objective;
    best_decisions = std::move(ctx.best_decisions);
    branches_explored = ctx.branches;
    vertices_visited = ctx.visited;
  } else {
    struct SubtreeResult {
      bool have_best = false;
      double best_objective = 0.0;
      std::vector<TaskDecision> best_decisions;
      std::size_t branches = 0;
      std::size_t visited = 0;
    };
    std::vector<SubtreeResult> results(fanout);

    util::global_parallel_for(fanout, [&](std::size_t child) {
      DfsContext ctx = make_context(instance, tree, optimizer, evaluator);
      if (child == 0) {
        // The skip child: the first task is rejected on this subtree
        // (choices start empty).
        dfs(ctx, 1);
      } else {
        visit_vertex(ctx, 0, tree.layer(0)[child - 1]);
      }
      results[child] = SubtreeResult{ctx.have_best, ctx.best_objective,
                                     std::move(ctx.best_decisions),
                                     ctx.branches, ctx.visited};
    });

    // Deterministic min-reduce in branch order: exact serial tie-breaking.
    for (SubtreeResult& result : results) {
      branches_explored += result.branches;
      vertices_visited += result.visited;
      if (!result.have_best) continue;
      if (!have_best || result.best_objective < best_objective) {
        have_best = true;
        best_objective = result.best_objective;
        best_decisions = std::move(result.best_decisions);
      }
    }
  }

  OptimalMetrics& metrics = OptimalMetrics::instance();
  metrics.solves.inc();
  metrics.vertices_visited.inc(vertices_visited);
  metrics.branches_explored.inc(branches_explored);

  DotSolution solution;
  solution.solver_name = "optimum";
  solution.decisions = std::move(best_decisions);
  if (solution.decisions.empty())
    solution.decisions.assign(instance.tasks.size(), TaskDecision{});
  solution.cost = evaluator.evaluate(solution.decisions);
  solution.solve_time_s = watch.elapsed_seconds();
  solution.branches_explored = branches_explored;
  return solution;
}

}  // namespace odn::core
