// Flight recorder — the black-box half of the diagnosis layer.
//
// Runtimes append structured epoch events (admissions, retries,
// preemptions, fault applications, migrations, batch seals, ...) into a
// bounded process-global ring buffer. When an anomaly fires, a fault
// lands, or the caller asks (ODN_FLIGHT=<path>, dump_flight_record()),
// the recorder serializes the retained window as valid JSON — the last N
// events before the interesting moment, with an explicit dropped count so
// truncation is never silent.
//
// Determinism contract (DESIGN.md §11): every record site sits on a
// serial, thread-count-invariant path (the runtime event loops and the
// emulator's discrete-event loop), and events carry *simulated* time
// only — never wall clock. Equal seeds therefore produce byte-identical
// dumps for any ODN_THREADS. A disabled recorder costs one branch on a
// relaxed atomic load per site (bench_obs_overhead pins the figure), and
// with ODN_FLIGHT unset every golden-compared report stream is
// byte-identical to the pre-recorder build.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace odn::obs {

enum class FlightEventKind : std::uint8_t {
  kArrival = 0,
  kAdmission,
  kRejection,
  kRetryScheduled,
  kDowngrade,
  kPreemption,
  kDisplacement,
  kReadmission,
  kDeparture,
  kFault,
  kMigration,
  kBatchSeal,
  kSloViolation,
  kEpochSeal,
  kAlert,
  kAnomaly,
};

const char* flight_event_kind_name(FlightEventKind kind) noexcept;

// `task` carries the correlation id minted by the workload generator
// (WorkloadEvent.job_id) and threaded through sched → dispatcher →
// controller → emulator; kNoFlightTask marks events with no single owner
// (epoch seals, cluster-wide faults).
inline constexpr std::uint64_t kNoFlightTask = ~std::uint64_t{0};

struct FlightEvent {
  double time_s = 0.0;            // simulated time — never wall clock
  FlightEventKind kind = FlightEventKind::kArrival;
  std::uint64_t task = kNoFlightTask;
  std::int64_t cell = -1;         // owning cell, -1 when not applicable
  std::uint64_t count = 0;        // kind-specific integer payload
  double value = 0.0;             // kind-specific magnitude
  // Static string literal (the recorder stores the pointer, mirroring the
  // tracer's category/name contract).
  const char* detail = "";
  std::uint64_t seq = 0;          // recorder-assigned, process-monotone
};

namespace detail {
// Relaxed is correct for the same reason as the tracer's flag: an event
// racing an enable/disable edge is kept or dropped whole, never torn.
extern std::atomic<bool> g_flight_enabled;
void flight_record_slow(const FlightEvent& event) noexcept;
}  // namespace detail

inline bool flight_enabled() noexcept {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}

// The per-site hook: one relaxed load + branch when disabled.
inline void flight_record(const FlightEvent& event) noexcept {
  if (!flight_enabled()) return;
  detail::flight_record_slow(event);
}

class FlightRecorder {
 public:
  static FlightRecorder& global();

  bool enabled() const noexcept { return flight_enabled(); }
  void set_enabled(bool enabled) noexcept;

  // Retained-window size; when full the oldest event is evicted and
  // counted as dropped. Resizing clears the events and the counters, like
  // reset(), so total_recorded() == size() + dropped() holds after it and
  // seq restarts at 0.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  void record(const FlightEvent& event) noexcept { flight_record(event); }

  // Events in arrival order (oldest retained first), seq already assigned.
  std::vector<FlightEvent> snapshot() const;

  std::size_t size() const;
  std::uint64_t total_recorded() const;  // includes evicted events
  std::uint64_t dropped() const;         // evicted from the ring

  // Clears events and counters; enabled flag and capacity survive.
  void reset();

  // Serializes the retained window as an "odn-flight-record/1" document.
  void write_json(std::ostream& out) const;
  std::string to_json() const;

 private:
  FlightRecorder();

  mutable std::mutex mutex_;
  std::vector<FlightEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;   // index of the oldest retained event
  std::size_t count_ = 0;  // retained events
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;

  friend void detail::flight_record_slow(const FlightEvent&) noexcept;
};

// Dumps the global recorder. The stream overload always writes; the path
// overload returns false when the file cannot be opened.
void dump_flight_record(std::ostream& out);
bool dump_flight_record(const std::string& path);

}  // namespace odn::obs
