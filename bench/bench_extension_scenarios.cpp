// Extension experiments beyond the paper's evaluation:
//   1. quality-adaptive OffloaDNN — DOT chooses the input quality level
//      jointly with the DNN structure (the paper fixes q_τ per task);
//   2. heterogeneous SNR — the large scenario over an LTE cell where
//      per-device channel quality spans cell-center to cell-edge;
//   3. heterogeneous catalog — the mixed ResNet/transformer catalog (early
//      exits included) solved at each request rate. bench_churn --hetcat
//      serves the same catalog under long-horizon churn.
//
// --measure-batching instead times full-depth substrate ViT inference at
// batch sizes 1..8 against the honest single-request baseline and fits
// the sub-linear cost model's marginal fraction (the EXPERIMENTS.md
// table; wall-clock, so never golden-compared).
//
//   $ ./bench_extension_scenarios [--measure-batching] [--seed N]
#include <cstdint>
#include <iostream>
#include <string>

#include "baseline/semoran.h"
#include "core/offloadnn_solver.h"
#include "core/scenarios.h"
#include "model/zoo.h"
#include "obs/session.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table.h"

namespace {

void legacy_tables() {
  using namespace odn;

  std::cout << "=== Extension experiments ===\n\n";

  const struct {
    core::RequestRate rate;
    const char* label;
  } kLevels[] = {{core::RequestRate::kLow, "low"},
                 {core::RequestRate::kMedium, "medium"},
                 {core::RequestRate::kHigh, "high"}};

  {
    util::Table table(
        "1. Quality-adaptive paths: fixed q (paper) vs joint optimization");
    table.set_header({"rate", "wadm fixed", "wadm adaptive", "RB fixed",
                      "RB adaptive", "tasks fixed", "tasks adaptive"});
    for (const auto& level : kLevels) {
      const core::DotInstance fixed_q = core::make_large_scenario(level.rate);
      core::ScenarioOptions adaptive_options;
      adaptive_options.quality_adaptive_paths = true;
      const core::DotInstance adaptive_q =
          core::make_large_scenario(level.rate, adaptive_options);
      const core::CostBreakdown fixed =
          core::OffloadnnSolver{}.solve(fixed_q).cost;
      const core::CostBreakdown adaptive =
          core::OffloadnnSolver{}.solve(adaptive_q).cost;
      table.add_row({level.label,
                     util::Table::num(fixed.weighted_admission, 2),
                     util::Table::num(adaptive.weighted_admission, 2),
                     util::Table::num(fixed.radio_fraction, 2),
                     util::Table::num(adaptive.radio_fraction, 2),
                     std::to_string(fixed.admitted_tasks),
                     std::to_string(adaptive.admitted_tasks)});
    }
    table.print(std::cout);
    std::cout << "\nReading: joint quality optimization pays off exactly "
                 "where the paper's radio bottleneck bites (high load) — "
                 "compressed inputs buy admission for the fractional "
                 "tail.\n\n";
  }

  {
    util::Table table(
        "2. Heterogeneous SNR (LTE cell): OffloaDNN vs SEM-O-RAN");
    table.set_header({"rate", "wadm O", "wadm S", "tasks O", "tasks S",
                      "RB frac O", "RB frac S", "mem frac O", "mem frac S"});
    for (const auto& level : kLevels) {
      const core::DotInstance instance =
          core::make_heterogeneous_snr_scenario(level.rate);
      const core::CostBreakdown ours =
          core::OffloadnnSolver{}.solve(instance).cost;
      const core::CostBreakdown theirs =
          baseline::SemOranSolver{}.solve(instance).cost;
      table.add_row({level.label,
                     util::Table::num(ours.weighted_admission, 2),
                     util::Table::num(theirs.weighted_admission, 2),
                     std::to_string(ours.admitted_tasks),
                     std::to_string(theirs.admitted_tasks),
                     util::Table::num(ours.radio_fraction, 2),
                     util::Table::num(theirs.radio_fraction, 2),
                     util::Table::num(ours.memory_fraction, 3),
                     util::Table::num(theirs.memory_fraction, 3)});
    }
    table.print(std::cout);
    std::cout << "\nReading: with B(σ) from the CQI table, cell-edge tasks "
                 "need several times the RBs per request; partial "
                 "admission (OffloaDNN) degrades them gracefully where "
                 "binary admission (SEM-O-RAN) drops them entirely.\n\n";
  }

  {
    util::Table table(
        "3. Heterogeneous catalog: mixed ResNet + transformer (early exits)");
    table.set_header({"rate", "wadm", "tasks", "RB frac", "mem frac"});
    for (const auto& level : kLevels) {
      const core::DotInstance instance =
          core::make_mixed_scenario(18, level.rate);
      const core::CostBreakdown cost =
          core::OffloadnnSolver{}.solve(instance).cost;
      table.add_row({level.label,
                     util::Table::num(cost.weighted_admission, 2),
                     std::to_string(cost.admitted_tasks),
                     util::Table::num(cost.radio_fraction, 2),
                     util::Table::num(cost.memory_fraction, 3)});
    }
    table.print(std::cout);
    std::cout << "\nReading: transformer tasks lean on early-exit paths "
                 "under load — a shorter shared trunk plus a tiny exit "
                 "head admits where the full-depth path would not fit.\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace odn;

  obs::EnvSession obs_session;

  bool measure_batching = false;
  std::uint64_t seed = 7;
  util::Flags flags(argc, argv, "[--measure-batching] [--seed N]");
  while (flags.next()) {
    if (flags.is("--measure-batching")) measure_batching = true;
    else if (flags.is("--seed")) seed = flags.count<std::uint64_t>();
    else flags.unknown();
  }

  util::set_log_level(util::LogLevel::kWarn);

  if (measure_batching) {
    // The EXPERIMENTS.md batching table: wall-clock full-depth inference
    // on the substrate ViT at batch sizes 1..8 (the b = 1 row is the
    // honest single-request baseline) and the least-squares fit of the
    // marginal fraction in c(b) = c(1)·(1 + mf·(b − 1)).
    model::VitConfig config;
    config.blocks_per_stage = {1, 1, 2, 2};
    util::Rng rng(seed);
    model::VisionTransformer vit(config, rng);
    const std::vector<model::BatchTiming> timings =
        model::measure_batch_timings(vit, {1, 2, 4, 8});
    const model::BatchCostModel fit = model::fit_batch_cost_model(timings);
    const double single = timings.front().seconds;

    util::Table table("Batched inference on the substrate ViT");
    table.set_header({"batch", "total ms", "per-req ms", "vs b=1 per-req",
                      "model c(b)/c(1)"});
    for (const model::BatchTiming& t : timings) {
      const double b = static_cast<double>(t.batch);
      table.add_row({std::to_string(t.batch),
                     util::Table::num(t.seconds * 1e3, 3),
                     util::Table::num(t.seconds * 1e3 / b, 3),
                     util::Table::num(single * b / t.seconds, 2),
                     util::Table::num(1.0 + fit.marginal_fraction * (b - 1.0),
                                      2)});
    }
    table.print(std::cout);
    std::cout << "\nfitted marginal_fraction: "
              << util::Table::num(fit.marginal_fraction, 3)
              << "  (per-request amortized scale at b=8: "
              << util::Table::num(fit.amortized_scale(8.0), 3) << ")\n";
    return 0;
  }

  legacy_tables();
  return 0;
}
