// Span-based tracer — the timeline half of the observability layer.
//
// Call sites open RAII scoped spans (ODN_TRACE_SPAN) around units of work:
// a controller plan, a solver run, a runtime epoch, a pool task. Each span
// records a logical sequence number (process-wide, monotone) plus
// wall-clock begin/duration from a steady clock, and is appended to a
// per-thread buffer — the only synchronization on the hot path is the
// owner thread's uncontended buffer mutex, taken again only when a drain
// runs concurrently. Draining serializes every buffered event into
// Chrome/Perfetto `trace_event` JSON ({"traceEvents": [...]}), loadable in
// ui.perfetto.dev or chrome://tracing.
//
// Determinism contract (DESIGN.md §6): wall-clock data exists *only* in
// the trace file, never in any golden-compared report stream. A disabled
// tracer costs exactly one branch on a relaxed atomic load per span site —
// bench_obs_overhead proves it stays in the sub-nanosecond range.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace odn::obs {

namespace detail {
// Process-wide enable flag. Relaxed is correct: a span that narrowly
// misses an enable/disable edge is dropped or kept whole — never torn.
extern std::atomic<bool> g_tracing_enabled;
}  // namespace detail

inline bool tracing_enabled() noexcept {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool enabled) noexcept;

// Disables tracing and drops every buffered event (thread registrations
// survive). Tests and bench reruns call this between measurements.
void reset_tracing();

// Number of events currently buffered across all threads.
std::size_t buffered_event_count();

// Drains every thread's buffer (events are removed) and writes them as
// Chrome trace_event JSON, sorted by (begin timestamp, sequence number).
void write_trace_json(std::ostream& out);

// Same, to a file; returns false when the file cannot be written.
bool write_trace_json(const std::string& path);

// RAII scoped span. `category` and `name` must be string literals (or
// otherwise outlive the drain) — the tracer stores the pointers.
class SpanScope {
 public:
  SpanScope(const char* category, const char* name) noexcept
      : active_(tracing_enabled()) {
    if (active_) begin(category, name);
  }
  ~SpanScope() {
    if (active_) end();
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void begin(const char* category, const char* name) noexcept;
  void end() noexcept;

  bool active_;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t seq_ = 0;
};

#define ODN_OBS_CONCAT_INNER(a, b) a##b
#define ODN_OBS_CONCAT(a, b) ODN_OBS_CONCAT_INNER(a, b)

// Opens a span covering the rest of the enclosing scope.
#define ODN_TRACE_SPAN(category, name)                                     \
  const ::odn::obs::SpanScope ODN_OBS_CONCAT(odn_trace_span_, __LINE__) {  \
    category, name                                                         \
  }

}  // namespace odn::obs
