// Burn-rate alert engine: option validation, the fire/resolve transition
// rules (fast AND slow windows to fire, fast cooling to resolve), partial
// window evaluation early in a run, the min-samples guard, and the
// one-null-check disabled hook.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/alerts.h"

namespace odn::obs {
namespace {

AlertOptions tight_options() {
  AlertOptions options;
  options.enabled = true;
  options.fast_window_epochs = 2;
  options.slow_window_epochs = 4;
  options.error_budget = 0.10;
  options.fast_burn_threshold = 2.0;  // fires at >= 20% violation fraction
  options.slow_burn_threshold = 1.0;  // over >= 10% sustained
  return options;
}

TEST(AlertOptions, ValidateRejectsNonsense) {
  AlertOptions options = tight_options();
  options.fast_window_epochs = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);

  options = tight_options();
  options.slow_window_epochs = 1;  // shorter than fast
  EXPECT_THROW(options.validate(), std::invalid_argument);

  options = tight_options();
  options.error_budget = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.error_budget = 1.5;
  EXPECT_THROW(options.validate(), std::invalid_argument);

  options = tight_options();
  options.fast_burn_threshold = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);

  EXPECT_NO_THROW(tight_options().validate());
  EXPECT_NO_THROW(AlertOptions{}.validate());  // defaults are sane
}

// `!(x > 0.0)` is false for +inf, so each threshold must also be finite.
TEST(AlertOptions, ValidateRejectsNonFiniteThresholds) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    AlertOptions options = tight_options();
    options.fast_burn_threshold = bad;
    EXPECT_THROW(options.validate(), std::invalid_argument);

    options = tight_options();
    options.slow_burn_threshold = bad;
    EXPECT_THROW(options.validate(), std::invalid_argument);

    options = tight_options();
    options.error_budget = bad;
    EXPECT_THROW(options.validate(), std::invalid_argument);
  }
}

TEST(AlertEngine, RejectsMismatchedClassVectors) {
  BurnRateAlertEngine engine(tight_options(), {"low", "high"});
  EXPECT_THROW(engine.observe_epoch(1, 10.0, {100}, {0}),
               std::invalid_argument);
  EXPECT_THROW(engine.observe_epoch(1, 10.0, {100, 100}, {0}),
               std::invalid_argument);
}

TEST(AlertEngine, FiresWhenBothWindowsBurnAndResolvesWhenFastCools) {
  BurnRateAlertEngine engine(tight_options(), {"c"});

  // Healthy epochs: 2% violation fraction = burn 0.2 — nothing fires.
  EXPECT_EQ(engine.observe_epoch(1, 10.0, {100}, {2}), 0u);
  EXPECT_EQ(engine.observe_epoch(2, 20.0, {100}, {2}), 0u);
  EXPECT_FALSE(engine.firing(0));

  // Burst: 50% violations = burn 5.0 in both windows -> fire once.
  EXPECT_EQ(engine.observe_epoch(3, 30.0, {100}, {50}), 1u);
  EXPECT_TRUE(engine.firing(0));
  // Still burning: no duplicate record while the alert stays up.
  EXPECT_EQ(engine.observe_epoch(4, 40.0, {100}, {50}), 0u);
  EXPECT_TRUE(engine.firing(0));

  // Recovery: two clean epochs cool the fast window -> resolve once.
  EXPECT_EQ(engine.observe_epoch(5, 50.0, {100}, {0}), 0u);  // fast still hot
  EXPECT_EQ(engine.observe_epoch(6, 60.0, {100}, {0}), 1u);
  EXPECT_FALSE(engine.firing(0));

  const AlertLog& log = engine.log();
  EXPECT_TRUE(log.enabled);
  EXPECT_EQ(log.epochs_evaluated, 6u);
  EXPECT_EQ(log.fired, 1u);
  EXPECT_EQ(log.resolved, 1u);
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0].seq, 0u);
  EXPECT_TRUE(log.records[0].firing);
  EXPECT_EQ(log.records[0].epoch, 3u);
  EXPECT_DOUBLE_EQ(log.records[0].time_s, 30.0);
  EXPECT_EQ(log.records[0].class_name, "c");
  EXPECT_EQ(log.records[1].seq, 1u);
  EXPECT_FALSE(log.records[1].firing);
  EXPECT_EQ(log.records[1].epoch, 6u);
}

TEST(AlertEngine, SlowWindowGatesAFastSpike) {
  // One violent epoch after a healthy history: the fast window burns past
  // its threshold but the slow window stays under its own -> no fire.
  AlertOptions options = tight_options();
  options.slow_burn_threshold = 1.5;
  BurnRateAlertEngine engine(options, {"c"});
  EXPECT_EQ(engine.observe_epoch(1, 10.0, {300}, {0}), 0u);
  EXPECT_EQ(engine.observe_epoch(2, 20.0, {300}, {0}), 0u);
  EXPECT_EQ(engine.observe_epoch(3, 30.0, {300}, {0}), 0u);
  // Fast window = epochs {3,4}: 130/600 = 21.7% -> burn 2.17 >= 2.0. Slow
  // window = epochs {1..4}: 130/1200 = 10.8% -> burn 1.08 < 1.5: gated.
  EXPECT_EQ(engine.observe_epoch(4, 40.0, {300}, {130}), 0u);
  EXPECT_FALSE(engine.firing(0));
}

TEST(AlertEngine, PartialWindowsEvaluateEarly) {
  // First epoch is already catastrophic: both windows evaluate over the
  // single sealed epoch and fire immediately instead of waiting for the
  // slow window to fill.
  BurnRateAlertEngine engine(tight_options(), {"c"});
  EXPECT_EQ(engine.observe_epoch(1, 10.0, {100}, {60}), 1u);
  EXPECT_TRUE(engine.firing(0));
  ASSERT_EQ(engine.log().records.size(), 1u);
  EXPECT_EQ(engine.log().records[0].fast_samples, 100u);
  EXPECT_EQ(engine.log().records[0].slow_samples, 100u);
}

TEST(AlertEngine, MinWindowSamplesSuppressesIdleClasses) {
  AlertOptions options = tight_options();
  options.min_window_samples = 50;
  BurnRateAlertEngine engine(options, {"idle"});
  // 10 samples, all violated — would burn 10/0.1 = 100, but the window
  // has fewer than 50 samples, so the burn reads 0 and nothing fires.
  EXPECT_EQ(engine.observe_epoch(1, 10.0, {10}, {10}), 0u);
  EXPECT_FALSE(engine.firing(0));
  // Once the window accumulates enough traffic the same fraction fires.
  EXPECT_EQ(engine.observe_epoch(2, 20.0, {90}, {90}), 1u);
  EXPECT_TRUE(engine.firing(0));
}

TEST(AlertEngine, ClassesEvaluateIndependentlyInNameOrder) {
  BurnRateAlertEngine engine(tight_options(), {"a", "b"});
  // Both classes fire at the same boundary: records come out in class
  // index order with consecutive seq numbers.
  EXPECT_EQ(engine.observe_epoch(1, 10.0, {100, 100}, {50, 50}), 2u);
  const AlertLog& log = engine.log();
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0].class_name, "a");
  EXPECT_EQ(log.records[1].class_name, "b");
  EXPECT_EQ(log.records[0].seq, 0u);
  EXPECT_EQ(log.records[1].seq, 1u);
  // One recovers, one keeps burning.
  EXPECT_EQ(engine.observe_epoch(2, 20.0, {100, 100}, {0, 50}), 0u);
  EXPECT_EQ(engine.observe_epoch(3, 30.0, {100, 100}, {0, 50}), 1u);
  EXPECT_FALSE(engine.firing(0));
  EXPECT_TRUE(engine.firing(1));
}

TEST(AlertEngine, DeterministicReplay) {
  // Same inputs -> identical log, including burn values (pure integer
  // arithmetic over the same windows).
  auto replay = [] {
    BurnRateAlertEngine engine(tight_options(), {"x", "y"});
    for (std::size_t epoch = 1; epoch <= 12; ++epoch) {
      const std::uint64_t v = (epoch % 3 == 0) ? 40 : 1;
      engine.observe_epoch(epoch, 10.0 * static_cast<double>(epoch),
                           {100, 200}, {v, v / 2});
    }
    return engine.log();
  };
  const AlertLog a = replay();
  const AlertLog b = replay();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].seq, b.records[i].seq);
    EXPECT_EQ(a.records[i].firing, b.records[i].firing);
    EXPECT_EQ(a.records[i].fast_burn, b.records[i].fast_burn);
    EXPECT_EQ(a.records[i].slow_burn, b.records[i].slow_burn);
  }
}

TEST(AlertEngine, MaybeObserveEpochIsANoOpWithoutEngine) {
  EXPECT_EQ(maybe_observe_epoch(nullptr, 1, 10.0, {100}, {100}), 0u);
  BurnRateAlertEngine engine(tight_options(), {"c"});
  EXPECT_EQ(maybe_observe_epoch(&engine, 1, 10.0, {100}, {50}), 1u);
}

}  // namespace
}  // namespace odn::obs
