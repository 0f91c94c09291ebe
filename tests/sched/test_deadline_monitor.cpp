// Deadline classifier tests: the SLO bucket precedence (rejected >
// preempted > missed > downgraded > met) over scripted histories, and the
// serving engine's use of it — its epoch snapshots (the pending/serving
// split) and its final buckets re-derived independently, job by job, from
// the flight-recorder journeys of the same run, which also pins the
// by-construction conservation law
//   met + missed + preempted + downgraded + rejected == arrivals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cell.h"
#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "fault/fault_plan.h"
#include "obs/flight.h"
#include "obs/timeline.h"
#include "runtime/workload.h"
#include "sched/deadline_monitor.h"
#include "sched/sched_stats.h"

namespace odn::sched {
namespace {

DeadlineHistory arrived(double arrival_s, double deadline_s) {
  DeadlineHistory history;
  history.arrival_s = arrival_s;
  history.deadline_s = deadline_s;
  return history;
}

TEST(DeadlineMonitor, ServedWithinDeadlineAtFullShapeIsMet) {
  DeadlineHistory history = arrived(10.0, 5.0);
  history.admit(12.0, /*downgraded=*/false);
  EXPECT_EQ(classify(history, /*serving=*/true), DeadlineBucket::kMet);

  // Departing while serving keeps the bucket — a completed job stays met.
  history.departed_serving = true;
  EXPECT_EQ(classify(history, false), DeadlineBucket::kMet);
}

TEST(DeadlineMonitor, LateFirstAdmissionIsMissed) {
  DeadlineHistory history = arrived(10.0, 5.0);
  history.admit(15.5, false);  // past 10 + 5
  EXPECT_EQ(classify(history, true), DeadlineBucket::kMissed);
}

TEST(DeadlineMonitor, ExactlyAtTheDeadlineStillMeets) {
  DeadlineHistory history = arrived(10.0, 5.0);
  history.admit(15.0, false);  // admit-by is inclusive
  EXPECT_EQ(classify(history, true), DeadlineBucket::kMet);
}

TEST(DeadlineMonitor, ZeroDeadlineMeansNoDeadline) {
  DeadlineHistory history = arrived(10.0, 0.0);
  history.admit(500.0, false);
  EXPECT_EQ(classify(history, true), DeadlineBucket::kMet);
}

TEST(DeadlineMonitor, NeverServedIsRejectedWhetherFinalizedOrNot) {
  // Still queued at the horizon, attempts exhausted, or left before ever
  // being admitted: none of them leaves a mark on the history.
  const DeadlineHistory history = arrived(0.0, 5.0);
  EXPECT_FALSE(history.first_admitted_s.has_value());
  EXPECT_EQ(classify(history, false), DeadlineBucket::kRejected);
}

TEST(DeadlineMonitor, EvictedAndNeverBackIsPreempted) {
  DeadlineHistory history = arrived(0.0, 5.0);
  history.admit(1.0, false);
  // Re-queued, or departed while re-queued (departed_serving stays unset):
  // it was cut short either way.
  history.ever_preempted = true;
  EXPECT_EQ(classify(history, false), DeadlineBucket::kPreempted);
}

TEST(DeadlineMonitor, ReshapedByTheLadderIsDowngraded) {
  DeadlineHistory history = arrived(0.0, 5.0);
  history.admit(1.0, false);
  history.ever_downgraded = true;
  EXPECT_EQ(classify(history, true), DeadlineBucket::kDowngraded);
}

TEST(DeadlineMonitor, AdmittedAtAReducedShapeIsDowngraded) {
  DeadlineHistory history = arrived(0.0, 5.0);
  history.admit(1.0, /*downgraded=*/true);  // retry's final try
  EXPECT_EQ(classify(history, true), DeadlineBucket::kDowngraded);
}

TEST(DeadlineMonitor, EvictedThenReadmittedIsDowngradedNotMet) {
  DeadlineHistory history = arrived(0.0, 5.0);
  history.admit(1.0, false);
  history.ever_preempted = true;
  history.admit(3.0, false);
  // Back in service within the deadline, but the interruption shows.
  EXPECT_EQ(classify(history, true), DeadlineBucket::kDowngraded);
}

TEST(DeadlineMonitor, MissedTakesPrecedenceOverDowngraded) {
  DeadlineHistory history = arrived(0.0, 2.0);
  history.admit(9.0, true);  // late AND downgraded
  EXPECT_EQ(classify(history, true), DeadlineBucket::kMissed);
}

TEST(DeadlineMonitor, PreemptedTakesPrecedenceOverMissed) {
  DeadlineHistory history = arrived(0.0, 2.0);
  history.admit(9.0, false);      // late first admission
  history.ever_preempted = true;  // then evicted for good
  EXPECT_EQ(classify(history, false), DeadlineBucket::kPreempted);
}

TEST(DeadlineMonitor, ReadmissionDoesNotRewriteTheFirstAdmissionInstant) {
  DeadlineHistory history = arrived(0.0, 10.0);
  history.admit(1.0, false);  // in time
  history.ever_preempted = true;
  history.admit(50.0, false);  // way past the deadline
  ASSERT_TRUE(history.first_admitted_s.has_value());
  EXPECT_EQ(*history.first_admitted_s, 1.0);
  // So the job is downgraded — not missed.
  EXPECT_EQ(classify(history, true), DeadlineBucket::kDowngraded);
}

// A sched-on engine run with the flight recorder on. Its journeys are the
// independent book: every bucket the engine reports is re-derived here
// from the events alone.
struct RecordedRun {
  cluster::ClusterReport report;
  std::size_t arrivals = 0;
  std::vector<obs::FlightEvent> events;
};

RecordedRun run_recorded(std::size_t cells) {
  runtime::WorkloadOptions workload;
  workload.horizon_s = 30.0;
  workload.seed = 11;
  workload.arrival_rate_per_s = 1.6;
  workload.mean_holding_s = 12.0;
  workload.qos.enabled = true;
  workload.qos.deadline_tightness = 0.8;
  const runtime::WorkloadTrace trace = runtime::generate_workload(5, workload);

  cluster::ClusterOptions options;
  options.epoch_s = 5.0;
  options.retry.max_attempts = 3;
  options.retry.backoff_s = 1.0;
  options.retry.downgrade_final_attempt = true;
  options.sched.enabled = true;
  fault::FaultPlanOptions faults;
  faults.horizon_s = 30.0;
  faults.seed = 3;
  faults.mean_outage_s = 6.0;
  options.faults = fault::generate_fault_plan(cells, faults);

  const core::DotInstance instance = core::make_small_scenario(5);
  edge::EdgeResources base = instance.resources;
  base.memory_capacity_bytes *= 0.6;
  base.compute_capacity_s *= 0.6;
  base.total_rbs = std::max<std::size_t>(1, base.total_rbs / 2);
  cluster::ClusterRuntime engine(instance.catalog,
                                 cluster::make_cells(cells, base, 5),
                                 instance.radio, instance.tasks, options);

  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.set_capacity(1 << 16);
  recorder.reset();
  recorder.set_enabled(true);
  RecordedRun run;
  run.report = engine.run(trace);
  recorder.set_enabled(false);
  EXPECT_EQ(recorder.dropped(), 0u);
  run.events = recorder.snapshot();
  recorder.reset();
  recorder.set_capacity(4096);
  run.arrivals = trace.arrival_count();
  return run;
}

// Every task's events in record order (seq ascending).
std::map<std::uint64_t, std::vector<obs::FlightEvent>> journeys_of(
    const RecordedRun& run) {
  std::map<std::uint64_t, std::vector<obs::FlightEvent>> journeys;
  for (const obs::FlightEvent& event : run.events)
    if (event.task != obs::kNoFlightTask)
      journeys[event.task].push_back(event);
  return journeys;
}

// The bucket counts of a snapshot or final tally, keyed by bucket name —
// the names classify_journey returns.
template <typename Buckets>
std::map<std::string, std::size_t> by_name(const Buckets& buckets) {
  return {{"met", buckets.met},
          {"missed", buckets.missed},
          {"preempted", buckets.preempted},
          {"downgraded", buckets.downgraded},
          {"rejected", buckets.rejected}};
}

// Engine test: each epoch's snapshot equals the buckets re-derived from
// the journey prefixes recorded before that epoch's seal. A job never
// admitted and not yet resolved is pending — and so is every job whose
// arrival is still ahead, since the engine knows the whole trace up front.
TEST(DeadlineMonitor, SnapshotSplitsPendingFromBucketedJobs) {
  for (const std::size_t cells : {1u, 3u}) {
    SCOPED_TRACE(::testing::Message() << cells << " cells");
    const RecordedRun run = run_recorded(cells);
    const auto journeys = journeys_of(run);
    ASSERT_EQ(journeys.size(), run.arrivals);

    std::vector<std::uint64_t> seals;
    for (const obs::FlightEvent& event : run.events)
      if (event.kind == obs::FlightEventKind::kEpochSeal)
        seals.push_back(event.seq);
    const std::vector<SchedEpochBuckets>& timeline =
        run.report.sched.timeline;
    ASSERT_EQ(seals.size(), timeline.size());
    ASSERT_GE(timeline.size(), 2u);

    std::size_t not_yet_arrived = 0;
    std::size_t queued = 0;
    for (std::size_t e = 0; e < seals.size(); ++e) {
      SCOPED_TRACE(::testing::Message() << "epoch " << e);
      std::map<std::string, std::size_t> fates = by_name(SchedStats{});
      std::size_t serving_now = 0;
      std::size_t pending = 0;
      for (const auto& [task, journey] : journeys) {
        (void)task;
        std::vector<obs::FlightEvent> prefix;
        for (const obs::FlightEvent& event : journey)
          if (event.seq < seals[e]) prefix.push_back(event);
        if (prefix.empty()) {
          ++pending;
          ++not_yet_arrived;
          continue;
        }
        bool admitted = false;
        bool resolved = false;
        bool serving = false;
        for (const obs::FlightEvent& event : prefix) {
          switch (event.kind) {
            case obs::FlightEventKind::kAdmission:
            case obs::FlightEventKind::kReadmission:
              admitted = serving = true;
              break;
            case obs::FlightEventKind::kPreemption:
            case obs::FlightEventKind::kDisplacement:
              serving = false;
              break;
            case obs::FlightEventKind::kRejection:
            case obs::FlightEventKind::kDeparture:
              resolved = true;
              serving = false;
              break;
            default:
              break;
          }
        }
        if (serving) ++serving_now;
        if (!admitted && !resolved) {
          ++pending;
          ++queued;
          continue;
        }
        ++fates[obs::classify_journey(prefix)];
      }
      const SchedEpochBuckets& got = timeline[e];
      EXPECT_EQ(got.serving, serving_now);
      EXPECT_EQ(got.pending, pending);
      EXPECT_EQ(by_name(got), fates);
      // Bucketed + pending covers every job of the trace exactly once.
      EXPECT_EQ(got.met + got.missed + got.preempted + got.downgraded +
                    got.rejected + got.pending,
                run.arrivals);
    }
    // Both halves of the pending split occur, or the test shows nothing.
    EXPECT_GT(not_yet_arrived, 0u);
    EXPECT_GT(queued, 0u);
  }
}

// Engine test: the final buckets give every arrival exactly one bucket,
// and each bucket equals the journey-fate histogram of the same run.
TEST(DeadlineMonitor, FinalizeAssignsEveryTrackedJobExactlyOneBucket) {
  for (const std::size_t cells : {1u, 3u}) {
    SCOPED_TRACE(::testing::Message() << cells << " cells");
    const RecordedRun run = run_recorded(cells);
    std::map<std::string, std::size_t> fates = by_name(SchedStats{});
    for (const auto& [task, journey] : journeys_of(run)) {
      (void)task;
      ++fates[obs::classify_journey(journey)];
    }
    const SchedStats& stats = run.report.sched;
    EXPECT_EQ(by_name(stats), fates);
    EXPECT_EQ(stats.met + stats.missed + stats.preempted + stats.downgraded +
                  stats.rejected,
              run.arrivals);
    // A run whose jobs all land in one bucket would make this vacuous.
    EXPECT_GT(stats.met, 0u);
    EXPECT_GT(stats.rejected + stats.preempted + stats.missed +
                  stats.downgraded,
              0u);
  }
}

}  // namespace
}  // namespace odn::sched
