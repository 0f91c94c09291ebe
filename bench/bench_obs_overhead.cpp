// Observability overhead micros — the cost model DESIGN.md §6 promises:
// a disabled span site is one branch on a relaxed atomic load, counter
// increments are single relaxed fetch_adds, and an enabled span is two
// clock reads plus a buffered event. Run with --benchmark_filter=Span to
// compare the disabled/enabled pair directly.
// The flight-recorder and alert-engine hook sites carry the same
// contract: disabled, flight_record is one relaxed load + branch and
// maybe_observe_epoch one null check — run with
// --benchmark_filter='Flight|AlertHook' to verify the low-ns cost.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "obs/alerts.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

void BM_SpanDisabled(benchmark::State& state) {
  odn::obs::set_tracing_enabled(false);
  for (auto _ : state) {
    ODN_TRACE_SPAN("bench", "obs.disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  odn::obs::reset_tracing();  // drop prior events, start clean
  odn::obs::set_tracing_enabled(true);
  for (auto _ : state) {
    ODN_TRACE_SPAN("bench", "obs.enabled");
    benchmark::ClobberMemory();
  }
  // Cap the buffer: discard the recorded events between runs so repeated
  // iterations cannot grow memory without bound.
  odn::obs::reset_tracing();
}
BENCHMARK(BM_SpanEnabled)->Iterations(1 << 20);

void BM_CounterInc(benchmark::State& state) {
  odn::obs::Counter& counter = odn::obs::MetricsRegistry::global().counter(
      "odn_bench_counter_inc_total");
  for (auto _ : state) {
    counter.inc();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CounterInc);

void BM_HistogramObserve(benchmark::State& state) {
  odn::obs::Histogram& histogram =
      odn::obs::MetricsRegistry::global().histogram(
          "odn_bench_latency_seconds", {0.01, 0.1, 1.0});
  double value = 0.0;
  for (auto _ : state) {
    histogram.observe(value);
    value += 0.001;
    if (value > 2.0) value = 0.0;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_FlightRecordDisabled(benchmark::State& state) {
  odn::obs::FlightRecorder::global().set_enabled(false);
  odn::obs::FlightEvent event;
  event.time_s = 1.0;
  event.kind = odn::obs::FlightEventKind::kAdmission;
  event.task = 42;
  for (auto _ : state) {
    odn::obs::flight_record(event);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FlightRecordDisabled);

void BM_FlightRecordEnabled(benchmark::State& state) {
  odn::obs::FlightRecorder& recorder = odn::obs::FlightRecorder::global();
  recorder.set_capacity(4096);
  recorder.set_enabled(true);
  odn::obs::FlightEvent event;
  event.time_s = 1.0;
  event.kind = odn::obs::FlightEventKind::kAdmission;
  event.task = 42;
  for (auto _ : state) {
    odn::obs::flight_record(event);
    benchmark::ClobberMemory();
  }
  recorder.set_enabled(false);
  recorder.reset();
}
BENCHMARK(BM_FlightRecordEnabled);

void BM_AlertHookDisabled(benchmark::State& state) {
  // The serving runtime's epoch-boundary hook with alerting off: a null
  // engine pointer, so the call is one branch.
  const std::vector<std::uint64_t> samples{100, 100, 100};
  const std::vector<std::uint64_t> violations{1, 2, 3};
  std::size_t epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(odn::obs::maybe_observe_epoch(
        nullptr, ++epoch, 1.0, samples, violations));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AlertHookDisabled);

void BM_AlertObserveEpoch(benchmark::State& state) {
  odn::obs::AlertOptions options;
  options.enabled = true;
  odn::obs::BurnRateAlertEngine engine(options, {"low", "medium", "high"});
  const std::vector<std::uint64_t> samples{100, 100, 100};
  const std::vector<std::uint64_t> violations{1, 2, 3};
  std::size_t epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.observe_epoch(++epoch, 1.0, samples, violations));
    benchmark::ClobberMemory();
  }
}
// Bounded iterations: each boundary appends at most a few alert records,
// and the windows are deques trimmed to 30 entries, but the log itself
// grows with fire/resolve flaps.
BENCHMARK(BM_AlertObserveEpoch)->Iterations(1 << 16);

}  // namespace

BENCHMARK_MAIN();
