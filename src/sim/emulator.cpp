#include "sim/emulator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/mathx.h"
#include "util/rng.h"

namespace odn::sim {
namespace {

enum class EventKind : std::uint32_t {
  kArrival,
  kTxComplete,
  kInferenceComplete,
  kDownlinkComplete,
  kBatchBoundary,  // a group's aggregation window expired
};
constexpr unsigned kKindBits = 3;
constexpr std::size_t kMaxPayloadId = 0xffffffffu;
__extension__ typedef unsigned __int128 EventKey;  // GCC/Clang builtin

// One calendar slot, 32 bytes. Events pop in strict (time, sequence)
// order, the sequence being the schedule order (FIFO among simultaneous
// events). The key packs both into one integer compared without branches:
// the high word is the bit pattern of time + 0.0, which orders like the
// value for the non-negative times the constructor's checks guarantee
// (+ 0.0 turns the -0.0 that an exponential draw of 0 returns into +0.0);
// the low word is the sequence. `time` keeps the exact double the
// handlers compute with.
struct alignas(16) Event {
  EventKey key;
  double time;
  std::uint32_t request;    // request id, batch id or group generation
  std::uint32_t task_kind;  // trace (or group) << kKindBits | EventKind

  EventKind kind() const noexcept {
    return static_cast<EventKind>(task_kind & ((1u << kKindBits) - 1));
  }
  std::size_t task() const noexcept { return task_kind >> kKindBits; }
};
static_assert(sizeof(Event) == 32);

// Binary min-heap on Event::key. pop() hands out the earliest event but
// keeps its slot: the next push() fills that slot and sifts it down once,
// instead of a pop's sift-down plus a push's sift-up, and the pop after
// releases the slot if no push did. Keys are unique, so every valid heap
// pops the same sequence, whatever shape the replacements leave.
class Calendar {
 public:
  bool pop(Event& out) {
    if (top_taken_) remove_top();
    if (heap_.empty()) return false;
    out = heap_.front();
    top_taken_ = true;
    return true;
  }

  void push(const Event& event) {
    if (top_taken_) {
      top_taken_ = false;
      sift_down(0, event);
      return;
    }
    heap_.push_back(event);
    sift_up(heap_.size() - 1, event);
  }

 private:
  void remove_top() {
    top_taken_ = false;
    const Event last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  void sift_down(std::size_t hole, const Event& event) {
    Event* const heap = heap_.data();
    const std::size_t size = heap_.size();
    for (std::size_t child = 2 * hole + 1; child < size;
         child = 2 * hole + 1) {
      child += static_cast<std::size_t>(child + 1 < size &&
                                        heap[child + 1].key < heap[child].key);
      if (!(heap[child].key < event.key)) break;
      heap[hole] = heap[child];
      hole = child;
    }
    heap[hole] = event;
  }

  void sift_up(std::size_t hole, const Event& event) {
    Event* const heap = heap_.data();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!(event.key < heap[parent].key)) break;
      heap[hole] = heap[parent];
      hole = parent;
    }
    heap[hole] = event;
  }

  std::vector<Event> heap_;
  bool top_taken_ = false;
};

struct Request {
  double arrival_s = 0.0;
  double tx_done_s = 0.0;
  double infer_done_s = 0.0;
};

// A slice transmits its requests in arrival order, so the ones awaiting
// transmission are always the consecutive ids [started, arrived).
struct SliceState {
  bool busy = false;
  std::size_t started = 0;  // requests whose transmission has begun
};

}  // namespace

double TaskTrace::mean_latency_s() const {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const LatencySample& s : samples) sum += s.latency_s;
  return sum / static_cast<double>(samples.size());
}

double TaskTrace::p95_latency_s() const {
  if (samples.empty()) return 0.0;
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  for (const LatencySample& s : samples) latencies.push_back(s.latency_s);
  return util::percentile(std::move(latencies), 95.0);
}

double TaskTrace::max_latency_s() const {
  double peak = 0.0;
  for (const LatencySample& s : samples)
    peak = std::max(peak, s.latency_s);
  return peak;
}

std::size_t TaskTrace::bound_violations() const {
  std::size_t count = 0;
  for (const LatencySample& s : samples)
    if (s.latency_s > latency_bound_s) ++count;
  return count;
}

std::vector<double> TaskTrace::smoothed_latencies(std::size_t window) const {
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  for (const LatencySample& s : samples) latencies.push_back(s.latency_s);
  return util::moving_average(latencies, window);
}

std::size_t EmulationReport::total_violations() const {
  std::size_t count = 0;
  for (const TaskTrace& t : tasks) count += t.bound_violations();
  return count;
}

EdgeEmulator::EdgeEmulator(core::DeploymentPlan plan, edge::RadioModel radio,
                           double compute_capacity_s, EmulatorOptions options)
    : plan_(std::move(plan)),
      radio_(radio),
      compute_capacity_s_(compute_capacity_s),
      options_(options) {
  // Event times must stay finite and non-negative (the calendar key's
  // precondition): a non-finite window would generate arrivals forever.
  if (!std::isfinite(options_.duration_s))
    throw std::invalid_argument("EdgeEmulator: non-finite duration");
  if (options_.duration_s <= 0.0)
    throw std::invalid_argument("EdgeEmulator: non-positive duration");
  if (!(std::isfinite(options_.result_bits) && options_.result_bits >= 0.0))
    throw std::invalid_argument(
        "EdgeEmulator: result_bits must be finite and non-negative");
  if (!(std::isfinite(options_.batching.window_s) &&
        options_.batching.window_s >= 0.0))
    throw std::invalid_argument(
        "EdgeEmulator: batching.window_s must be finite and non-negative");
  if (options_.batching.enabled) options_.batching.validate();
  if (!(std::isfinite(compute_capacity_s_) && compute_capacity_s_ >= 0.0))
    throw std::invalid_argument(
        "EdgeEmulator: compute capacity must be finite and non-negative");
  const auto usable = [](double value) {
    return std::isfinite(value) && value >= 0.0;
  };
  for (const core::TaskPlan& task : plan_.tasks) {
    if (!task.admitted) continue;
    const char* field = !usable(task.admitted_rate)      ? "admitted_rate"
                        : !usable(task.inference_time_s) ? "inference_time_s"
                        : !usable(task.input_bits)       ? "input_bits"
                                                         : nullptr;
    if (field != nullptr)
      throw std::invalid_argument("EdgeEmulator: task '" + task.task_name +
                                  "' has a non-finite or negative " + field);
  }
}

EmulationReport EdgeEmulator::run() {
  ODN_TRACE_SPAN("sim", "sim.emulate");
  // Admitted tasks only.
  std::vector<std::size_t> admitted;
  for (std::size_t t = 0; t < plan_.tasks.size(); ++t)
    if (plan_.tasks[t].admitted && plan_.tasks[t].admitted_rate > 0.0)
      admitted.push_back(t);

  EmulationReport report;
  report.tasks.resize(admitted.size());
  if (admitted.empty()) return report;

  // GPU executor pool: ⌊C⌋ parallel servers (at least one). Each dispatch
  // occupies one server for its batch's compute time.
  const std::size_t gpu_servers = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(compute_capacity_s_)));
  std::size_t gpu_busy = 0;
  double gpu_busy_integral = 0.0;
  double last_event_time = 0.0;

  Calendar calendar;
  std::uint64_t sequence = 0;
  // Payload ids are 32 bits wide. A request, batch or generation id never
  // exceeds the events scheduled so far, so only a run past 2^32 events
  // can overflow one, and it throws instead of wrapping.
  if (admitted.size() > (kMaxPayloadId >> kKindBits))
    throw std::length_error("EdgeEmulator: too many admitted tasks");
  auto schedule = [&](double time, EventKind kind, std::size_t task,
                      std::size_t request) {
    if (request > kMaxPayloadId) [[unlikely]]
      throw std::length_error("EdgeEmulator: event id overflows 32 bits");
    const auto time_bits = std::bit_cast<std::uint64_t>(time + 0.0);
    calendar.push(Event{
        static_cast<EventKey>(time_bits) << 64 | sequence++, time,
        static_cast<std::uint32_t>(request),
        static_cast<std::uint32_t>(task << kKindBits |
                                   static_cast<std::uint32_t>(kind))});
  };
  util::Rng rng(options_.seed);

  std::vector<SliceState> slices(admitted.size());
  std::vector<std::vector<Request>> requests(admitted.size());
  std::vector<double> slice_busy_s(admitted.size(), 0.0);
  std::vector<std::size_t> peak_queue(admitted.size(), 0);

  // Per-trace static parameters.
  struct TraceParams {
    double tx_time_s;
    double inference_s;
    double downlink_s;
    double rate;
  };
  std::vector<TraceParams> params(admitted.size());
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    const core::TaskPlan& task_plan = plan_.tasks[admitted[i]];
    report.tasks[i].task_name = task_plan.task_name;
    report.tasks[i].correlation = task_plan.correlation;
    report.tasks[i].latency_bound_s = task_plan.latency_bound_s;
    params[i].tx_time_s =
        task_plan.slice_rbs > 0
            ? task_plan.input_bits /
                  (radio_.bits_per_rb_per_second(20.0) *
                   static_cast<double>(task_plan.slice_rbs))
            : 0.0;
    params[i].inference_s = task_plan.inference_time_s;
    // FDD cell: the downlink result returns on the paired band of the
    // same slice, so it does not contend with uplink transmissions.
    params[i].downlink_s =
        task_plan.slice_rbs > 0 && options_.result_bits > 0.0
            ? options_.result_bits /
                  (radio_.bits_per_rb_per_second(20.0) *
                   static_cast<double>(task_plan.slice_rbs))
            : 0.0;
    params[i].rate = task_plan.admitted_rate;
    // Sized for the expected arrivals, so the per-trace storage rarely
    // regrows.
    const auto expected_arrivals =
        static_cast<std::size_t>(params[i].rate * options_.duration_s) + 1;
    requests[i].reserve(expected_arrivals);
    report.tasks[i].samples.reserve(expected_arrivals);

    // First arrival.
    const double first = options_.poisson_arrivals
                             ? rng.exponential(params[i].rate)
                             : 1.0 / params[i].rate;
    schedule(first, EventKind::kArrival, i, 0);
  }

  // --- Dispatch groups --------------------------------------------------
  // Every inference reaches the GPU as a sealed batch. A request whose
  // uplink finished joins its group's pending micro-batch; the batch seals
  // when the group's aggregation window (batching.window_s from the first
  // pending request) expires or max_batch requests accumulate, and sealed
  // batches dispatch FIFO onto free executors for batch_cost_s(c1, b)
  // seconds. With batching on, traces sharing a deployed path (same block
  // sequence and inference time) form one group. With it off, each trace
  // is its own group and max_batch is 1: every request seals alone as its
  // uplink finishes and runs for batch_cost_s(c1, 1) == c1.
  const bool batching = options_.batching.enabled;
  const std::size_t max_batch = batching ? options_.batching.max_batch : 1;
  std::vector<std::size_t> group_of(admitted.size());
  std::map<std::pair<std::vector<edge::BlockIndex>, double>, std::size_t>
      groups;
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    group_of[i] = i;
    if (!batching) continue;
    const auto key = std::make_pair(plan_.tasks[admitted[i]].blocks,
                                    params[i].inference_s);
    group_of[i] = groups.emplace(key, groups.size()).first->second;
  }
  using Member = std::pair<std::size_t, std::size_t>;  // (trace, request)
  struct GroupState {
    std::vector<Member> pending;  // cleared on seal, capacity kept
    // Sealing bumps the generation; an outstanding boundary event whose
    // generation no longer matches is stale and ignored.
    std::uint64_t generation = 0;
  };
  std::vector<GroupState> group_states(batching ? groups.size()
                                                : admitted.size());
  // Sealed batches, flat: batch b's members are
  // members[batch_start[b], batch_start[b + 1]). kInferenceComplete.request
  // names the batch. Batches dispatch in seal order, so the ready queue is
  // the batch ids from next_batch on.
  std::vector<Member> members;
  std::vector<std::size_t> batch_start{0};
  std::size_t next_batch = 0;
  // Sized for the expected arrivals, so the flat storage rarely regrows.
  double expected_requests = 0.0;
  for (const TraceParams& p : params)
    expected_requests += p.rate * options_.duration_s;
  members.reserve(static_cast<std::size_t>(expected_requests) +
                  admitted.size());
  batch_start.reserve(members.capacity() + 1);

  auto account_gpu = [&](double now) {
    gpu_busy_integral +=
        static_cast<double>(gpu_busy) * (now - last_event_time);
    last_event_time = now;
  };

  // Move a group's pending requests into a sealed batch. Serial event-loop
  // code: deterministic for any ODN_THREADS.
  auto seal_group = [&](double now, std::size_t group) {
    GroupState& state = group_states[group];
    if (state.pending.empty()) return;
    ++state.generation;  // invalidate any outstanding boundary event
    members.insert(members.end(), state.pending.begin(), state.pending.end());
    batch_start.push_back(members.size());
    if (batching && obs::flight_enabled()) {
      // Serial event-loop site: seal order and contents are identical for
      // any ODN_THREADS. The event carries the lead member's correlation.
      obs::FlightEvent event;
      event.time_s = options_.flight_time_base_s + now;
      event.kind = obs::FlightEventKind::kBatchSeal;
      event.task =
          plan_.tasks[admitted[state.pending.front().first]].correlation;
      event.cell = options_.flight_cell;
      event.count = state.pending.size();
      obs::flight_record(event);
    }
    state.pending.clear();
  };

  // Dispatch sealed batches FIFO onto free executors.
  auto dispatch_ready = [&](double now) {
    for (; gpu_busy < gpu_servers && next_batch + 1 < batch_start.size();
         ++next_batch) {
      const std::size_t lead = members[batch_start[next_batch]].first;
      const std::size_t size =
          batch_start[next_batch + 1] - batch_start[next_batch];
      const double duration = options_.batching.cost.batch_cost_s(
          params[lead].inference_s, size);
      ++gpu_busy;
      if (batching) {
        ++report.batch_dispatches;
        report.coalesced_requests += size - 1;
        report.max_batch_observed = std::max(report.max_batch_observed, size);
      }
      schedule(now + duration, EventKind::kInferenceComplete, lead,
               next_batch);
    }
  };

  // Starts transmitting the trace's oldest request not yet started.
  auto start_transmission = [&](double now, std::size_t trace) {
    const std::size_t request = slices[trace].started++;
    slices[trace].busy = true;
    slice_busy_s[trace] += params[trace].tx_time_s;
    schedule(now + params[trace].tx_time_s, EventKind::kTxComplete, trace,
             request);
  };

  auto record_sample = [&](double now, std::size_t trace,
                           std::size_t request_id) {
    const Request& request = requests[trace][request_id];
    LatencySample sample;
    sample.arrival_time_s = request.arrival_s;
    sample.completion_time_s = now;
    sample.latency_s = now - request.arrival_s;
    sample.transmission_s = request.tx_done_s - request.arrival_s;
    sample.inference_s = request.infer_done_s - request.tx_done_s;
    sample.downlink_s = now - request.infer_done_s;
    report.tasks[trace].samples.push_back(sample);
    ++report.total_requests;
  };

  Event event{};
  while (calendar.pop(event)) {
    const EventKind kind = event.kind();
    if (kind == EventKind::kArrival && event.time > options_.duration_s)
      continue;  // stop generating; in-flight work still drains

    account_gpu(event.time);
    const std::size_t trace = event.task();

    switch (kind) {
      case EventKind::kArrival: {
        const std::size_t request_id = requests[trace].size();
        requests[trace].push_back(Request{event.time, 0.0});
        if (slices[trace].busy) {
          const std::size_t waiting =
              requests[trace].size() - slices[trace].started;
          peak_queue[trace] = std::max(peak_queue[trace], waiting);
        } else {
          start_transmission(event.time, trace);
        }

        // Schedule the next arrival of this task.
        const double gap = options_.poisson_arrivals
                               ? rng.exponential(params[trace].rate)
                               : 1.0 / params[trace].rate;
        schedule(event.time + gap, EventKind::kArrival, trace,
                 request_id + 1);
        break;
      }
      case EventKind::kTxComplete: {
        requests[trace][event.request].tx_done_s = event.time;
        const std::size_t group = group_of[trace];
        GroupState& state = group_states[group];
        state.pending.emplace_back(trace, event.request);
        if (state.pending.size() >= max_batch) {
          seal_group(event.time, group);
          dispatch_ready(event.time);
        } else if (state.pending.size() == 1) {
          // First pending request opens the group's aggregation window.
          schedule(event.time + options_.batching.window_s,
                   EventKind::kBatchBoundary, group,
                   static_cast<std::size_t>(state.generation));
        }
        if (slices[trace].started < requests[trace].size()) {
          start_transmission(event.time, trace);
        } else {
          slices[trace].busy = false;
        }
        break;
      }
      case EventKind::kInferenceComplete: {
        // event.request names a batch; finish every member of it.
        for (std::size_t m = batch_start[event.request];
             m < batch_start[event.request + 1]; ++m) {
          const auto [mt, mr] = members[m];
          requests[mt][mr].infer_done_s = event.time;
          if (params[mt].downlink_s > 0.0) {
            schedule(event.time + params[mt].downlink_s,
                     EventKind::kDownlinkComplete, mt, mr);
          } else {
            record_sample(event.time, mt, mr);
          }
        }
        --gpu_busy;
        dispatch_ready(event.time);
        break;
      }
      case EventKind::kDownlinkComplete: {
        record_sample(event.time, trace, event.request);
        break;
      }
      case EventKind::kBatchBoundary: {
        // The event's task is the group, its request the generation at
        // schedule time; a mismatch means the group sealed early
        // (max_batch) and this window is stale.
        if (event.request == group_states[trace].generation) {
          seal_group(event.time, trace);
          dispatch_ready(event.time);
        }
        break;
      }
    }
  }

  if (last_event_time > 0.0) {
    report.gpu_busy_fraction =
        gpu_busy_integral /
        (last_event_time * static_cast<double>(gpu_servers));
    for (std::size_t i = 0; i < admitted.size(); ++i) {
      report.tasks[i].slice_busy_fraction =
          slice_busy_s[i] / last_event_time;
      report.tasks[i].peak_slice_queue = peak_queue[i];
    }
  }

  // The event loop is serial and seeded, so these totals are deterministic
  // for a given plan regardless of ODN_THREADS.
  static obs::Counter& emulations =
      obs::MetricsRegistry::global().counter("odn_sim_emulations_total");
  static obs::Counter& request_count =
      obs::MetricsRegistry::global().counter("odn_sim_requests_total");
  emulations.inc();
  request_count.inc(report.total_requests);
  return report;
}

}  // namespace odn::sim
