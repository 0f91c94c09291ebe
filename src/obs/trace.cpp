#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/json.h"

namespace odn::obs {

namespace detail {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace detail

namespace {

struct TraceEvent {
  const char* category = nullptr;
  const char* name = nullptr;
  std::uint64_t seq = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  char phase = 'X';
};

// One buffer per thread, owned jointly by the thread (thread_local
// shared_ptr) and the registry (so events survive thread exit until the
// next drain). The mutex is uncontended except while a drain runs.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

struct TracerRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

TracerRegistry& registry() {
  static TracerRegistry instance;
  return instance;
}

std::atomic<std::uint64_t> g_sequence{0};

// Wall-clock nanoseconds since the first trace call in this process.
std::uint64_t now_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    TracerRegistry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    fresh->tid = reg.next_tid++;
    reg.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

void append_event(TraceEvent event) {
  ThreadBuffer& buffer = local_buffer();
  event.tid = buffer.tid;
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(event);
}

// Locale-independent microseconds with nanosecond resolution.
void write_us(std::ostream& out, std::uint64_t ns) {
  char digits[32];
  const auto result = std::to_chars(digits, digits + sizeof(digits),
                                    static_cast<double>(ns) / 1e3,
                                    std::chars_format::fixed, 3);
  out.write(digits, result.ptr - digits);
}

std::vector<TraceEvent> drain_all() {
  std::vector<TraceEvent> all;
  TracerRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const std::shared_ptr<ThreadBuffer>& buffer : reg.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    all.insert(all.end(), buffer->events.begin(), buffer->events.end());
    buffer->events.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.seq < b.seq;
            });
  return all;
}

}  // namespace

void set_tracing_enabled(bool enabled) noexcept {
  detail::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

void reset_tracing() {
  set_tracing_enabled(false);
  (void)drain_all();
}

std::size_t buffered_event_count() {
  TracerRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t count = 0;
  for (const std::shared_ptr<ThreadBuffer>& buffer : reg.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    count += buffer->events.size();
  }
  return count;
}

void write_trace_json(std::ostream& out) {
  const std::vector<TraceEvent> events = drain_all();
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    if (i != 0) out << ",";
    out << "\n{\"name\":\"" << json_escape(event.name) << "\",\"cat\":\""
        << json_escape(event.category) << "\",\"ph\":\"" << event.phase
        << "\",\"ts\":";
    write_us(out, event.start_ns);
    if (event.phase == 'X') {
      out << ",\"dur\":";
      write_us(out, event.dur_ns);
    } else {
      // Perfetto requires a scope for instant events; "t" = thread.
      out << ",\"s\":\"t\"";
    }
    out << ",\"pid\":1,\"tid\":" << event.tid << ",\"args\":{\"seq\":"
        << event.seq << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool write_trace_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_trace_json(out);
  return static_cast<bool>(out);
}

void SpanScope::begin(const char* category, const char* name) noexcept {
  category_ = category;
  name_ = name;
  seq_ = g_sequence.fetch_add(1, std::memory_order_relaxed);
  start_ns_ = now_ns();
}

void SpanScope::end() noexcept {
  TraceEvent event;
  event.category = category_;
  event.name = name_;
  event.seq = seq_;
  event.start_ns = start_ns_;
  event.dur_ns = now_ns() - start_ns_;
  event.phase = 'X';
  append_event(event);
}

void trace_instant(const char* category, const char* name) noexcept {
  if (!tracing_enabled()) return;
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.seq = g_sequence.fetch_add(1, std::memory_order_relaxed);
  event.start_ns = now_ns();
  event.phase = 'i';
  append_event(event);
}

}  // namespace odn::obs
