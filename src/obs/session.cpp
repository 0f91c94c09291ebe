#include "obs/session.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace odn::obs {
namespace {

// Crash-flush state. Paths are set before the instrumented run starts and
// read from the atexit/terminate hooks; the mutex covers the (rare)
// register-vs-flush race, the flag makes the flush one-shot.
std::mutex g_flush_mutex;
std::atomic<bool> g_flushed{false};
bool g_hooks_installed = false;
std::string g_trace_path;
std::string g_metrics_path;
std::string g_flight_path;
std::terminate_handler g_prev_terminate = nullptr;

void atexit_flush() { flush_observability_artifacts(); }

[[noreturn]] void terminate_flush() {
  flush_observability_artifacts();
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

// Registers the paths to flush on exit()/std::terminate; empty strings
// skip that artifact. Installs the hooks on first call; later calls only
// update the paths.
void register_crash_flush(const std::string& trace_path,
                          const std::string& metrics_path,
                          const std::string& flight_path) {
  const std::lock_guard<std::mutex> lock(g_flush_mutex);
  g_trace_path = trace_path;
  g_metrics_path = metrics_path;
  g_flight_path = flight_path;
  g_flushed.store(false, std::memory_order_relaxed);
  if (!g_hooks_installed) {
    g_hooks_installed = true;
    std::atexit(atexit_flush);
    g_prev_terminate = std::set_terminate(terminate_flush);
  }
}

}  // namespace

bool flush_observability_artifacts() noexcept {
  try {
    const std::lock_guard<std::mutex> lock(g_flush_mutex);
    if (g_flushed.exchange(true, std::memory_order_relaxed)) return false;
    if (!g_trace_path.empty()) {
      set_tracing_enabled(false);
      if (write_trace_json(g_trace_path)) {
        std::fprintf(stderr, "obs: trace written to %s\n",
                     g_trace_path.c_str());
      } else {
        std::fprintf(stderr, "obs: cannot write trace to %s\n",
                     g_trace_path.c_str());
      }
    }
    if (!g_metrics_path.empty()) {
      std::ofstream out(g_metrics_path);
      if (out) {
        MetricsRegistry::global().write_prometheus(out);
        std::fprintf(stderr, "obs: metrics written to %s\n",
                     g_metrics_path.c_str());
      } else {
        std::fprintf(stderr, "obs: cannot write metrics to %s\n",
                     g_metrics_path.c_str());
      }
    }
    if (!g_flight_path.empty()) {
      if (dump_flight_record(g_flight_path)) {
        std::fprintf(stderr, "obs: flight record written to %s\n",
                     g_flight_path.c_str());
      } else {
        std::fprintf(stderr, "obs: cannot write flight record to %s\n",
                     g_flight_path.c_str());
      }
    }
    return true;
  } catch (...) {
    // A flush from a terminate handler must never throw through.
    return false;
  }
}

EnvSession::EnvSession() {
  if (const char* trace = std::getenv("ODN_TRACE");
      trace != nullptr && *trace != '\0') {
    trace_path_ = trace;
    set_tracing_enabled(true);
  }
  if (const char* metrics = std::getenv("ODN_METRICS");
      metrics != nullptr && *metrics != '\0') {
    metrics_path_ = metrics;
  }
  if (const char* flight = std::getenv("ODN_FLIGHT");
      flight != nullptr && *flight != '\0') {
    flight_path_ = flight;
    FlightRecorder::global().set_enabled(true);
  }
  if (!trace_path_.empty() || !metrics_path_.empty() || !flight_path_.empty())
    register_crash_flush(trace_path_, metrics_path_, flight_path_);
}

EnvSession::~EnvSession() {
  flush_observability_artifacts();
  if (!flight_path_.empty()) FlightRecorder::global().set_enabled(false);
}

}  // namespace odn::obs
