// Batching cost model + probes: the b = 1 bit-exact identity, sub-linear
// amortization, option validation, the expected-batch clamp, the
// apply_batching_probe no-op/scaling contract, marginal-fraction recovery
// from synthetic timings, and zoo profiling sanity on the substrate.
#include "model/batching.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/scenarios.h"
#include "model/zoo.h"
#include "util/rng.h"

namespace odn::model {
namespace {

TEST(BatchCostModel, SingleRequestIsBitExactIdentity) {
  BatchCostModel cost;
  cost.marginal_fraction = 0.37;
  // The b <= 1 branch must return the input double unchanged — no
  // multiply-by-one round trip.
  const double single = 0.123456789012345678;
  EXPECT_EQ(cost.batch_cost_s(single, 0), single);
  EXPECT_EQ(cost.batch_cost_s(single, 1), single);
  EXPECT_EQ(cost.amortized_scale(1.0), 1.0);
  EXPECT_EQ(cost.amortized_scale(0.5), 1.0);
}

TEST(BatchCostModel, BatchCostIsSubLinear) {
  BatchCostModel cost;
  cost.marginal_fraction = 0.45;
  const double single = 0.010;
  double previous_per_request = single;
  for (std::size_t b = 2; b <= 16; ++b) {
    const double total = cost.batch_cost_s(single, b);
    // Total grows, per-request shrinks.
    EXPECT_GT(total, cost.batch_cost_s(single, b - 1));
    EXPECT_LT(total, single * static_cast<double>(b));
    const double per_request = total / static_cast<double>(b);
    EXPECT_LT(per_request, previous_per_request);
    previous_per_request = per_request;
    // amortized_scale is exactly per-request / single.
    EXPECT_NEAR(cost.amortized_scale(static_cast<double>(b)),
                per_request / single, 1e-12);
  }
  // mf = 1 degenerates to linear cost: batching buys nothing.
  cost.marginal_fraction = 1.0;
  EXPECT_DOUBLE_EQ(cost.batch_cost_s(single, 8), single * 8.0);
  EXPECT_DOUBLE_EQ(cost.amortized_scale(8.0), 1.0);
}

TEST(BatchingOptions, ValidateRejectsBadFields) {
  BatchingOptions options;
  options.enabled = true;
  EXPECT_NO_THROW(options.validate());

  BatchingOptions bad_mf = options;
  bad_mf.cost.marginal_fraction = 0.0;
  EXPECT_THROW(bad_mf.validate(), std::invalid_argument);
  bad_mf.cost.marginal_fraction = 1.5;
  EXPECT_THROW(bad_mf.validate(), std::invalid_argument);

  BatchingOptions bad_batch = options;
  bad_batch.max_batch = 0;
  EXPECT_THROW(bad_batch.validate(), std::invalid_argument);

  BatchingOptions bad_window = options;
  bad_window.window_s = 0.0;
  EXPECT_THROW(bad_window.validate(), std::invalid_argument);

  BatchingOptions bad_probe = options;
  bad_probe.probe_window_s = -1.0;
  EXPECT_THROW(bad_probe.validate(), std::invalid_argument);
}

// `!(x > 0.0)` is false for +inf, so each window must also be finite.
TEST(BatchingOptions, ValidateRejectsNonFiniteFields) {
  BatchingOptions options;
  options.enabled = true;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    BatchingOptions bad_window = options;
    bad_window.window_s = bad;
    EXPECT_THROW(bad_window.validate(), std::invalid_argument);

    BatchingOptions bad_probe = options;
    bad_probe.probe_window_s = bad;
    EXPECT_THROW(bad_probe.validate(), std::invalid_argument);

    BatchingOptions bad_mf = options;
    bad_mf.cost.marginal_fraction = bad;
    EXPECT_THROW(bad_mf.validate(), std::invalid_argument);
  }
}

TEST(BatchingOptions, ExpectedBatchSizeClampsToValidRange) {
  BatchingOptions options;
  options.max_batch = 6;
  options.probe_window_s = 0.5;
  // Slow arrivals never batch below one...
  EXPECT_DOUBLE_EQ(expected_batch_size(0.1, options), 1.0);
  EXPECT_DOUBLE_EQ(expected_batch_size(0.0, options), 1.0);
  // ...mid rates give the fractional expectation...
  EXPECT_DOUBLE_EQ(expected_batch_size(5.0, options), 2.5);
  // ...and fast arrivals saturate at max_batch.
  EXPECT_DOUBLE_EQ(expected_batch_size(1000.0, options), 6.0);
}

TEST(BatchingProbe, DisabledIsStrictNoOp) {
  core::DotInstance instance = core::make_mixed_scenario(
      6, core::RequestRate::kMedium);
  BatchingOptions options;  // enabled = false
  apply_batching_probe(instance.tasks, options);
  for (const core::DotTask& task : instance.tasks)
    for (const core::PathOption& option : task.options)
      EXPECT_EQ(option.compute_scale, 1.0);
}

TEST(BatchingProbe, EnabledScalesEveryOptionIntoUnitInterval) {
  core::DotInstance instance = core::make_mixed_scenario(
      6, core::RequestRate::kHigh);
  BatchingOptions options;
  options.enabled = true;
  apply_batching_probe(instance.tasks, options);
  for (const core::DotTask& task : instance.tasks) {
    const double expected = options.cost.amortized_scale(
        expected_batch_size(task.spec.request_rate, options));
    for (const core::PathOption& option : task.options) {
      EXPECT_GT(option.compute_scale, 0.0);
      EXPECT_LE(option.compute_scale, 1.0);
      EXPECT_DOUBLE_EQ(option.compute_scale, expected);
    }
    // High-rate tasks genuinely amortize: the scale must drop below one.
    EXPECT_LT(task.options.front().compute_scale, 1.0);
  }
}

TEST(BatchFit, RecoversKnownMarginalFraction) {
  // Synthetic timings drawn exactly from c(b) = c1 (1 + mf (b - 1)).
  const double c1 = 0.004;
  const double mf = 0.3;
  std::vector<BatchTiming> timings;
  for (std::size_t b : {1u, 2u, 4u, 8u, 16u})
    timings.push_back(
        {b, c1 * (1.0 + mf * static_cast<double>(b - 1))});
  const BatchCostModel fit = fit_batch_cost_model(timings);
  EXPECT_NEAR(fit.marginal_fraction, mf, 1e-9);
}

TEST(BatchFit, RequiresBaselineAndBatchPoints) {
  // No b = 1 honest baseline: refuse to fit.
  EXPECT_THROW(fit_batch_cost_model({{2, 0.01}, {4, 0.02}}),
               std::invalid_argument);
  // No b > 1 point: nothing to fit against.
  EXPECT_THROW(fit_batch_cost_model({{1, 0.01}}), std::invalid_argument);
  EXPECT_THROW(fit_batch_cost_model({}), std::invalid_argument);
}

TEST(BatchFit, ClampsDegenerateMeasurements) {
  // Super-linear noise clamps to mf = 1 (batching never helps)...
  const BatchCostModel high =
      fit_batch_cost_model({{1, 0.01}, {8, 0.30}});
  EXPECT_DOUBLE_EQ(high.marginal_fraction, 1.0);
  // ...and a flat (free-riding) measurement clamps to the 0.05 floor.
  const BatchCostModel low =
      fit_batch_cost_model({{1, 0.01}, {8, 0.01}});
  EXPECT_DOUBLE_EQ(low.marginal_fraction, 0.05);
}

TEST(Zoo, ProfileTransformerPopulatesEveryStage) {
  VitConfig config;
  config.image_size = 8;
  config.patch_size = 4;
  config.embed_dim = 8;
  config.num_heads = 2;
  config.blocks_per_stage = {1, 1, 1, 1};
  util::Rng rng(5);
  VisionTransformer model(config, rng);
  const TransformerProfile profile =
      profile_transformer(model, /*repetitions=*/3);
  EXPECT_GT(profile.embed.compute_time_ms, 0.0);
  EXPECT_GT(profile.embed.memory_bytes, 0u);
  for (std::size_t s = 0; s < kNumStages; ++s) {
    EXPECT_GT(profile.stages[s].compute_time_ms, 0.0) << "stage " << s;
    EXPECT_GT(profile.stages[s].memory_bytes, 0u) << "stage " << s;
    EXPECT_GT(profile.stages[s].macs, 0u) << "stage " << s;
    EXPECT_GT(profile.exits[s].compute_time_ms, 0.0) << "exit " << s;
  }
  EXPECT_GT(profile.total_compute_time_ms(), 0.0);
  EXPECT_GT(profile.total_memory_bytes(), 0u);
}

TEST(Zoo, MeasuredBatchModelIsValid) {
  VitConfig config;
  config.image_size = 8;
  config.patch_size = 4;
  config.embed_dim = 8;
  config.num_heads = 2;
  config.blocks_per_stage = {1, 1, 1, 1};
  util::Rng rng(7);
  VisionTransformer model(config, rng);
  const std::vector<BatchTiming> timings =
      measure_batch_timings(model, {1, 2, 4}, /*repetitions=*/3);
  ASSERT_EQ(timings.size(), 3u);
  for (const BatchTiming& t : timings) EXPECT_GT(t.seconds, 0.0);
  const BatchCostModel fit = fit_batch_cost_model(timings);
  EXPECT_NO_THROW(fit.validate());
}

}  // namespace
}  // namespace odn::model
