// Deadline-aware serving example — the scheduling subsystem (src/sched/,
// DESIGN.md §9) end to end: a QoS-annotated churn workload (per-job
// admit-by deadlines and priorities on every arrival) runs twice over
// the same edge, once with plain first-come-first-served admission and
// once with the preemption ladder on, and the example compares what the
// two policies do to each SLO bucket.
//
// With scheduling enabled, an arrival the plain path would reject climbs
// the ladder: admit as-is -> accuracy-downgrade cheaper lower-priority
// served tasks -> preempt them outright -> reject. Preempted victims
// re-enter admission through the retry machinery; a deadline monitor
// classifies every job as met / missed / preempted / downgraded /
// rejected.
//
//   $ ./deadline_serving [--seed N] [--duration S] [--tightness T]
#include <cstdint>
#include <iostream>
#include <string>

#include "core/scenarios.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odn;

  std::uint64_t seed = 7;
  double duration_s = 60.0;
  double tightness = 1.0;
  util::Flags flags(argc, argv, "[--seed N] [--duration S] [--tightness T]");
  while (flags.next()) {
    if (flags.is("--seed")) seed = flags.count<std::uint64_t>();
    else if (flags.is("--duration")) duration_s = flags.positive();
    else if (flags.is("--tightness")) tightness = flags.positive();
    else flags.unknown();
  }
  util::set_log_level(util::LogLevel::kWarn);

  std::cout << "=== Deadline-aware serving (seed " << seed << ", "
            << duration_s << " s, tightness " << tightness << ") ===\n\n";

  const core::DotInstance instance =
      core::make_large_scenario(core::RequestRate::kLow);

  // One QoS-annotated trace serves both runs: the annotation layer draws
  // from its own derived Rng stream, so the base arrival process is the
  // same trace a sched-off run would see.
  runtime::WorkloadOptions workload;
  workload.horizon_s = duration_s;
  workload.seed = seed;
  workload.arrival_rate_per_s = 1.2;
  workload.mean_holding_s = 25.0;
  workload.burst_count = 2;
  workload.qos.enabled = true;
  workload.qos.deadline_tightness = tightness;
  const runtime::WorkloadTrace trace =
      runtime::generate_workload(instance.tasks.size(), workload);

  auto run = [&](bool sched_on) {
    runtime::RuntimeOptions options;
    options.seed = seed;
    options.epoch_s = 10.0;
    options.retry.max_attempts = 3;
    options.retry.downgrade_final_attempt = true;
    options.sched.enabled = sched_on;
    runtime::ServingRuntime serving(instance.catalog, instance.resources,
                                    instance.radio, instance.tasks, options);
    return serving.run(trace);
  };

  const runtime::RuntimeReport plain = run(false);
  const runtime::RuntimeReport sched = run(true);

  util::Table classes("Admission lifecycle: FCFS vs preemption ladder");
  classes.set_header({"class", "arrivals", "admitted (fcfs)",
                      "admitted (sched)", "rejected (fcfs)",
                      "rejected (sched)"});
  for (std::size_t i = 0; i < plain.classes.size(); ++i) {
    const runtime::ClassStats& p = plain.classes[i];
    const runtime::ClassStats& s = sched.classes[i];
    classes.add_row({p.name, std::to_string(p.arrivals),
                     std::to_string(p.admitted), std::to_string(s.admitted),
                     std::to_string(p.rejected_final),
                     std::to_string(s.rejected_final)});
  }
  classes.print(std::cout);

  std::cout << "\nLadder decisions: " << sched.sched.admitted_plain
            << " admitted as-is, " << sched.sched.admitted_by_downgrade
            << " by downgrading victims, " << sched.sched.admitted_by_preemption
            << " by preempting victims, " << sched.sched.ladder_rejected
            << " rejected after every rung (" << sched.sched.probes
            << " solver dry-runs, " << sched.sched.rollbacks
            << " rollbacks).\nVictims: " << sched.sched.downgrades
            << " downgraded in place, " << sched.sched.preemptions
            << " preempted — of those " << sched.sched.preempted_readmitted
            << " readmitted, " << sched.sched.preempted_rejected
            << " rejected, " << sched.sched.preempted_departed
            << " departed re-queued, " << sched.sched.preempted_pending_at_end
            << " still pending at the horizon.\n\n";

  util::Table buckets("Final SLO buckets (deadline monitor, sched run)");
  buckets.set_header(
      {"met", "missed", "preempted", "downgraded", "rejected", "arrivals"});
  buckets.add_row({std::to_string(sched.sched.met),
                   std::to_string(sched.sched.missed),
                   std::to_string(sched.sched.preempted),
                   std::to_string(sched.sched.downgraded),
                   std::to_string(sched.sched.rejected),
                   std::to_string(sched.total_arrivals())});
  buckets.print(std::cout);

  std::cout << "\nEvery arrival lands in exactly one bucket (the five sum "
               "to the arrival count by construction). Each job draws its "
               "own QoS priority independent of its task class, so the "
               "ladder reshuffles admissions toward high-priority jobs "
               "rather than whole classes. Tighten deadlines "
               "(--tightness 0.5) to push more of them into the missed "
               "bucket and more victims through the downgrade and preempt "
               "rungs.\n";
  return 0;
}
