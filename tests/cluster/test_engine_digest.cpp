// Pins the serving engine's report bytes on configurations the golden
// reports cannot reach through bench_churn: scheduling together with
// faults and migration on several cells, cost_probe placement under
// scheduling, batching with burn-rate alerts on one cell, and a
// hand-written trace whose job ids run against arrival order. Each case
// hashes ClusterReport::to_json() at ODN_THREADS 1 and 2; both must give
// the pinned digest. A change to the event loop's order, its bookkeeping
// or its accounting that moves any byte changes a digest.
//
// The digests pin -O3 arithmetic (like the golden reports), hence the
// `golden` label: an -O0 coverage tree excludes them.
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "fault/fault_plan.h"
#include "runtime/workload.h"
#include "util/thread_pool.h"

namespace odn::cluster {
namespace {

// FNV-1a over the report's bytes.
std::string digest(const std::string& text) {
  std::uint64_t state = 0xcbf29ce484222325ull;
  for (const char c : text) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(state));
  return hex;
}

runtime::WorkloadTrace churn(double horizon_s, bool qos) {
  runtime::WorkloadOptions options;
  options.horizon_s = horizon_s;
  options.seed = 17;
  options.arrival_rate_per_s = 1.2;
  options.mean_holding_s = 12.0;
  options.burst_count = 2;
  options.burst_arrivals_mean = 8.0;
  options.burst_span_s = 3.0;
  options.qos.enabled = qos;
  options.qos.deadline_tightness = 0.5;
  return runtime::generate_workload(5, options);
}

ClusterOptions base_options() {
  ClusterOptions options;
  options.seed = 23;
  options.epoch_s = 5.0;
  options.emulation_window_s = 2.0;
  return options;
}

// N seeded heterogeneous cells of the small scenario, each about half of
// its single-server envelope, so every cell overloads under the bursts.
ClusterRuntime cluster(std::size_t cells, const ClusterOptions& options) {
  const core::DotInstance instance = core::make_small_scenario(5);
  edge::EdgeResources base = instance.resources;
  base.memory_capacity_bytes *= 0.6;
  base.compute_capacity_s *= 0.6;
  base.total_rbs = std::max<std::size_t>(1, base.total_rbs / 2);
  return ClusterRuntime(instance.catalog, make_cells(cells, base, 5),
                        instance.radio, instance.tasks, options);
}

// The report at ODN_THREADS 1 and 2 (they must agree), and its digest.
struct Pinned {
  ClusterReport report;
  std::string hex;
};

Pinned run_both(ClusterRuntime& runtime, const runtime::WorkloadTrace& trace) {
  util::set_thread_count(1);
  Pinned run{runtime.run(trace), ""};
  const std::string serial = run.report.to_json();
  util::set_thread_count(2);
  const std::string parallel = runtime.run(trace).to_json();
  util::set_thread_count(0);
  EXPECT_EQ(serial, parallel);
  run.hex = digest(serial);
  return run;
}

TEST(EngineDigest, SchedFaultsAndMigrationOnThreeCells) {
  ClusterOptions options = base_options();
  options.sched.enabled = true;
  options.migration_batch = 2;
  fault::FaultPlanOptions faults;
  faults.horizon_s = 80.0;
  faults.seed = 7;
  options.faults = fault::generate_fault_plan(3, faults);
  ClusterRuntime runtime = cluster(3, options);
  const Pinned run = run_both(runtime, churn(80.0, true));
  // The case covers what it names.
  EXPECT_GT(run.report.sched.preemptions + run.report.sched.downgrades, 0u);
  EXPECT_GT(run.report.faults.displaced, 0u);
  EXPECT_GT(run.report.migration.migrated, 0u);
  EXPECT_EQ(run.hex, "e8921b3b698c0c29");
}

TEST(EngineDigest, CostProbeUnderScheduling) {
  ClusterOptions options = base_options();
  options.sched.enabled = true;
  options.dispatch.policy = PlacementPolicy::kCostProbe;
  ClusterRuntime runtime = cluster(4, options);
  const Pinned run = run_both(runtime, churn(60.0, true));
  EXPECT_GT(run.report.sched.probes, 0u);
  EXPECT_EQ(run.hex, "12a247387bae7d98");
}

TEST(EngineDigest, BatchingAndAlertsOnOneCell) {
  ClusterOptions options = base_options();
  options.batching.enabled = true;
  options.alerts.enabled = true;
  ClusterRuntime runtime = cluster(1, options);
  const Pinned run = run_both(runtime, churn(80.0, false));
  EXPECT_GT(run.report.batching.coalesced_requests, 0u);
  EXPECT_FALSE(run.report.alerts.records.empty());
  EXPECT_EQ(run.hex, "547a2895580b14fc");
}

// Job ids fall as jobs arrive, and departures free room while older jobs
// still serve, so neither id order nor reuse of freed bookkeeping matches
// arrival order. Jobs 46 and 42 are rejected and depart later; job 49
// departs during its retry backoff.
constexpr const char* kAgainstArrivalOrder =
    "ODN-TRACE 1\n"
    "name against-arrival-order\n"
    "horizon 40\n"
    "templates 5\n"
    "events 30\n"
    "event 0.5 A 50 0 qos 4 0.9\n"
    "event 1 A 49 1 qos 4 0.2\n"
    "event 1.5 A 48 2 qos 3 0.6\n"
    "event 2 A 46 4 qos 2 0.1\n"
    "event 2 A 47 3 qos 5 0.8\n"
    "event 2.5 A 45 0 qos 6 0.4\n"
    "event 3 A 44 1 qos 3 0.95\n"
    "event 4 D 49 1\n"
    "event 4.5 A 43 2 qos 4 0.7\n"
    "event 5 A 42 3 qos 2 0.3\n"
    "event 6 D 44 1\n"
    "event 7 A 41 4 qos 5 0.85\n"
    "event 8 A 40 0 qos 3 0.5\n"
    "event 9 D 47 3\n"
    "event 11 A 39 1 qos 4 0.65\n"
    "event 12 D 50 0\n"
    "event 13 A 38 2 qos 2 0.15\n"
    "event 14 A 37 3 qos 6 0.75\n"
    "event 16 D 42 3\n"
    "event 17 A 36 4 qos 3 0.55\n"
    "event 19 D 46 4\n"
    "event 21 D 40 0\n"
    "event 22 A 35 0 qos 4 0.9\n"
    "event 24 D 43 2\n"
    "event 25 D 39 1\n"
    "event 26 A 34 1 qos 5 0.25\n"
    "event 28 D 37 3\n"
    "event 31 D 45 0\n"
    "event 33 D 36 4\n"
    "event 35 D 35 0\n";

TEST(EngineDigest, HandWrittenTraceAgainstArrivalOrder) {
  std::istringstream in(kAgainstArrivalOrder);
  const runtime::WorkloadTrace trace = runtime::read_trace(in);
  ClusterOptions options = base_options();
  options.sched.enabled = true;
  ClusterRuntime runtime = cluster(1, options);
  const Pinned run = run_both(runtime, trace);
  EXPECT_GT(run.report.total_admitted(), 0u);
  EXPECT_EQ(run.hex, "818ca05ea823b196");
}

}  // namespace
}  // namespace odn::cluster
