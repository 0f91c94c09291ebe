#include "fault/fault_plan.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>

#include "util/fmt.h"
#include "util/record_reader.h"
#include "util/rng.h"

namespace odn::fault {
namespace {

constexpr const char* kHeader = "ODN-FAULTS 1";

constexpr std::array<const char*, 8> kKindNames = {
    "crash",           "recover",         "radio_degrade", "radio_restore",
    "latency_inflate", "latency_restore", "budget_exhaust", "budget_restore"};

// The four onset/recovery pairs, indexed by fault class.
constexpr std::array<FaultEventKind, 4> kOnsets = {
    FaultEventKind::kCellCrash, FaultEventKind::kRadioDegrade,
    FaultEventKind::kLatencyInflate, FaultEventKind::kBudgetExhaust};
constexpr std::array<FaultEventKind, 4> kRecoveries = {
    FaultEventKind::kCellRecover, FaultEventKind::kRadioRestore,
    FaultEventKind::kLatencyRestore, FaultEventKind::kBudgetRestore};

// Fault class of a kind (0..3), and whether the kind is the onset.
std::size_t class_of(FaultEventKind kind) noexcept {
  return static_cast<std::size_t>(kind) / 2;
}
bool is_onset(FaultEventKind kind) noexcept {
  return static_cast<std::size_t>(kind) % 2 == 0;
}

}  // namespace

const char* fault_event_kind_name(FaultEventKind kind) noexcept {
  return kKindNames[static_cast<std::size_t>(kind)];
}

bool FaultEvent::operator==(const FaultEvent& other) const noexcept {
  return time_s == other.time_s && kind == other.kind &&
         cell == other.cell && magnitude == other.magnitude;
}

bool fault_event_less(const FaultEvent& a, const FaultEvent& b) noexcept {
  if (a.time_s != b.time_s) return a.time_s < b.time_s;
  if (a.cell != b.cell) return a.cell < b.cell;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

void FaultPlan::validate() const {
  if (cell_count == 0)
    throw std::invalid_argument(
        util::fmt("FaultPlan '{}': zero cells", name));
  if (!(std::isfinite(horizon_s) && horizon_s >= 0.0))
    throw std::invalid_argument(
        util::fmt("FaultPlan '{}': horizon {} not in [0, inf)", name,
                  horizon_s));
  if (cell_count > std::numeric_limits<std::size_t>::max() / 4)
    throw std::invalid_argument(util::fmt(
        "FaultPlan '{}': cell count {} overflows the (cell, class) index",
        name, cell_count));
  // Open onsets, indexed cell * 4 + fault class: a set sized by the events
  // rather than a table sized by cell_count, which a file can make huge.
  std::set<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    if (!(event.time_s >= 0.0 && event.time_s <= horizon_s + 1e-9))
      throw std::invalid_argument(
          util::fmt("FaultPlan '{}': event {} at t={} outside [0, {}]", name,
                    i, event.time_s, horizon_s));
    if (event.cell >= cell_count)
      throw std::invalid_argument(
          util::fmt("FaultPlan '{}': event {} targets cell {} of {}", name, i,
                    event.cell, cell_count));
    if (i > 0 && fault_event_less(event, events[i - 1]))
      throw std::invalid_argument(
          util::fmt("FaultPlan '{}': events unsorted at index {}", name, i));
    if (event.kind == FaultEventKind::kRadioDegrade) {
      if (!(event.magnitude > 0.0 && event.magnitude <= 1.0))
        throw std::invalid_argument(util::fmt(
            "FaultPlan '{}': event {} radio factor {} outside (0, 1]", name,
            i, event.magnitude));
    } else if (event.kind == FaultEventKind::kLatencyInflate) {
      if (!(event.magnitude >= 1.0))
        throw std::invalid_argument(util::fmt(
            "FaultPlan '{}': event {} latency factor {} below 1", name, i,
            event.magnitude));
    } else if (event.magnitude != 1.0) {
      throw std::invalid_argument(util::fmt(
          "FaultPlan '{}': event {} ({}) carries magnitude {}", name, i,
          fault_event_kind_name(event.kind), event.magnitude));
    }
    const std::size_t key = event.cell * 4 + class_of(event.kind);
    if (is_onset(event.kind) ? !open.insert(key).second : !open.erase(key))
      throw std::invalid_argument(util::fmt(
          "FaultPlan '{}': event {} ({}) on cell {} {}", name, i,
          fault_event_kind_name(event.kind), event.cell,
          is_onset(event.kind) ? "while already faulted"
                               : "with no open fault"));
  }
}

void FaultPlanOptions::validate() const {
  const auto positive_finite = [](double x) {
    return std::isfinite(x) && x > 0.0;
  };
  if (!positive_finite(horizon_s))
    throw std::invalid_argument("FaultPlanOptions: horizon not in (0, inf)");
  if (!(positive_finite(mean_outage_s) && positive_finite(mean_degradation_s) &&
        positive_finite(mean_inflation_s) &&
        positive_finite(mean_exhaustion_s)))
    throw std::invalid_argument("FaultPlanOptions: duration not in (0, inf)");
  if (!(degrade_floor > 0.0 && degrade_floor <= 0.9))
    throw std::invalid_argument(
        "FaultPlanOptions: degrade_floor outside (0, 0.9]");
  if (!(std::isfinite(max_inflation) && max_inflation >= 1.2))
    throw std::invalid_argument(
        "FaultPlanOptions: max_inflation not in [1.2, inf)");
}

FaultPlan generate_fault_plan(std::size_t cell_count,
                              const FaultPlanOptions& options) {
  if (cell_count == 0 ||
      cell_count > std::numeric_limits<std::size_t>::max() / 4)
    throw std::invalid_argument(util::fmt(
        "generate_fault_plan: cell count {} not in [1, SIZE_MAX / 4]",
        cell_count));
  options.validate();

  util::Rng rng(options.seed);
  FaultPlan plan;
  plan.name = util::fmt("faults-seed{}", options.seed);
  plan.horizon_s = options.horizon_s;
  plan.cell_count = cell_count;

  // One closed window per accepted draw; window [start, end] clamps to the
  // horizon, and an end beyond the horizon drops the recovery event (the
  // fault persists to the end of the run). Overlapping draws for the same
  // (cell, class) are skipped after their Rng draws, so the stream of
  // draws — and therefore the plan — is deterministic per seed. Windows are
  // keyed cell * 4 + fault class, so the table grows with the draws, not
  // with cell_count.
  std::map<std::size_t, std::vector<std::pair<double, double>>> windows;
  const std::array<std::size_t, 4> counts = {
      options.cell_crashes, options.radio_degradations,
      options.latency_inflations, options.budget_exhaustions};
  const std::array<double, 4> mean_durations = {
      options.mean_outage_s, options.mean_degradation_s,
      options.mean_inflation_s, options.mean_exhaustion_s};

  for (std::size_t fault_class = 0; fault_class < 4; ++fault_class) {
    for (std::size_t k = 0; k < counts[fault_class]; ++k) {
      const std::size_t cell = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(cell_count) - 1));
      const double start = rng.uniform(0.0, options.horizon_s);
      const double duration =
          rng.exponential(1.0 / mean_durations[fault_class]);
      double magnitude = 1.0;
      if (kOnsets[fault_class] == FaultEventKind::kRadioDegrade)
        magnitude = rng.uniform(options.degrade_floor, 0.9);
      else if (kOnsets[fault_class] == FaultEventKind::kLatencyInflate)
        magnitude = rng.uniform(1.2, options.max_inflation);

      const double end = std::min(start + duration, options.horizon_s);
      std::vector<std::pair<double, double>>& existing =
          windows[cell * 4 + fault_class];
      const bool overlaps = std::any_of(
          existing.begin(), existing.end(),
          [&](const std::pair<double, double>& w) {
            return start <= w.second && end >= w.first;
          });
      if (overlaps) continue;
      existing.emplace_back(start, end);

      plan.events.push_back(
          FaultEvent{start, kOnsets[fault_class], cell, magnitude});
      if (start + duration <= options.horizon_s)
        plan.events.push_back(
            FaultEvent{end, kRecoveries[fault_class], cell, 1.0});
    }
  }

  std::sort(plan.events.begin(), plan.events.end(), fault_event_less);
  plan.validate();
  return plan;
}

void write_fault_plan(const FaultPlan& plan, std::ostream& out) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << kHeader << '\n';
  out << "name " << plan.name << '\n';
  out << "horizon " << plan.horizon_s << '\n';
  out << "cells " << plan.cell_count << '\n';
  out << "events " << plan.events.size() << '\n';
  for (const FaultEvent& event : plan.events)
    out << "event " << event.time_s << ' '
        << fault_event_kind_name(event.kind) << ' ' << event.cell << ' '
        << event.magnitude << '\n';
}

void write_fault_plan(const FaultPlan& plan, const std::string& path) {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("write_fault_plan: cannot open " + path);
  write_fault_plan(plan, out);
}

FaultPlan read_fault_plan(std::istream& in) {
  util::RecordReader reader(in, "read_fault_plan");
  reader.header({kHeader});
  FaultPlan plan;
  plan.name = reader.record("name").rest();
  plan.horizon_s = reader.record("horizon").number("horizon");
  plan.cell_count = reader.record("cells").count<std::size_t>("cell count");
  const auto count =
      reader.record("events").count<std::size_t>("event count");
  for (std::size_t i = 0; i < count; ++i) {
    FaultEvent event;
    event.time_s = reader.record("event").number("event time");
    const std::string_view kind = reader.word("event kind");
    const auto it = std::find(kKindNames.begin(), kKindNames.end(), kind);
    if (it == kKindNames.end())
      reader.fail(util::fmt("unknown event kind '{}'", kind));
    event.kind = static_cast<FaultEventKind>(it - kKindNames.begin());
    event.cell = reader.count<std::size_t>("cell");
    event.magnitude = reader.number("magnitude");
    plan.events.push_back(event);
  }
  reader.check([&] { plan.validate(); });
  reader.finish();
  return plan;
}

FaultPlan read_fault_plan_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("read_fault_plan_file: cannot open " + path);
  return read_fault_plan(in);
}

}  // namespace odn::fault
