// Deterministic fault schedules for the serving stack.
//
// A FaultPlan is a sorted list of timestamped fault events — cell
// crash/recover, radio-bandwidth degradation, per-cell latency inflation
// and solver-budget exhaustion — either generated from a seed
// (generate_fault_plan) or parsed from the small ODN-FAULTS text format
// (exact round-trip, mirroring the ODN-TRACE workload format). The
// FaultInjector (injector.h) replays a plan at epoch boundaries inside the
// serving engine (ClusterRuntime; ServingRuntime is its one-cell case).
//
// Determinism contract: equal (cell_count, options) produce equal plans on
// every platform the Rng is deterministic on, and write_fault_plan ∘
// read_fault_plan is the identity (times and magnitudes serialize with
// max_digits10 precision).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace odn::fault {

// The four fault classes, each an onset/recovery pair. Magnitude carries
// the bandwidth factor in (0, 1] for kRadioDegrade and the latency factor
// >= 1 for kLatencyInflate; every other kind uses magnitude == 1.
enum class FaultEventKind : std::uint8_t {
  kCellCrash,
  kCellRecover,
  kRadioDegrade,
  kRadioRestore,
  kLatencyInflate,
  kLatencyRestore,
  kBudgetExhaust,
  kBudgetRestore,
};

const char* fault_event_kind_name(FaultEventKind kind) noexcept;

struct FaultEvent {
  double time_s = 0.0;
  FaultEventKind kind = FaultEventKind::kCellCrash;
  std::size_t cell = 0;
  double magnitude = 1.0;

  bool operator==(const FaultEvent& other) const noexcept;
};

// Sort key shared by the generator, the parser and validate(): time first,
// then cell, then kind (onsets before recoveries of a later window at
// equal instants are rejected by validate, so ties are benign).
bool fault_event_less(const FaultEvent& a, const FaultEvent& b) noexcept;

struct FaultPlan {
  std::string name = "no-faults";
  double horizon_s = 0.0;
  std::size_t cell_count = 1;
  std::vector<FaultEvent> events;  // sorted by fault_event_less

  bool empty() const noexcept { return events.empty(); }

  // Throws std::invalid_argument unless the plan is well formed: cell_count
  // in [1, SIZE_MAX / 4], events sorted and inside [0, horizon], cells
  // inside [0, cell_count), magnitudes in range, and — per cell, per fault
  // class — onsets and recoveries strictly alternating starting with an
  // onset (a missing recovery at the horizon is allowed: the fault persists
  // to the end of the run).
  void validate() const;
};

// Knobs for the seeded generator: per fault class, how many outage windows
// to attempt and their mean duration (exponentially distributed). Windows
// that would overlap an earlier window of the same class on the same cell
// are skipped (deterministically), so plans always validate.
struct FaultPlanOptions {
  double horizon_s = 60.0;
  std::uint64_t seed = 2024;
  std::size_t cell_crashes = 1;
  double mean_outage_s = 8.0;
  std::size_t radio_degradations = 1;
  double degrade_floor = 0.3;  // bandwidth factor drawn from [floor, 0.9]
  double mean_degradation_s = 10.0;
  std::size_t latency_inflations = 1;
  double max_inflation = 3.0;  // latency factor drawn from [1.2, max]
  double mean_inflation_s = 10.0;
  std::size_t budget_exhaustions = 1;
  double mean_exhaustion_s = 6.0;

  void validate() const;
};

FaultPlan generate_fault_plan(std::size_t cell_count,
                              const FaultPlanOptions& options = {});

// ODN-FAULTS 1 text format (exact round-trip; the shared ODN-* record
// grammar of util/record_reader.h). read_fault_plan throws
// std::runtime_error with the offending line number on malformed input.
void write_fault_plan(const FaultPlan& plan, std::ostream& out);
void write_fault_plan(const FaultPlan& plan, const std::string& path);
FaultPlan read_fault_plan(std::istream& in);
FaultPlan read_fault_plan_file(const std::string& path);

}  // namespace odn::fault
