#include "obs/flight.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json.h"

namespace odn::obs {
namespace {

constexpr std::size_t kDefaultCapacity = 4096;

}  // namespace

namespace detail {

std::atomic<bool> g_flight_enabled{false};

void flight_record_slow(const FlightEvent& event) noexcept {
  FlightRecorder& recorder = FlightRecorder::global();
  const std::lock_guard<std::mutex> lock(recorder.mutex_);
  FlightEvent stamped = event;
  stamped.seq = recorder.total_++;
  if (recorder.count_ == recorder.capacity_) {
    // Ring full: evict the oldest retained event.
    recorder.ring_[recorder.head_] = stamped;
    recorder.head_ = (recorder.head_ + 1) % recorder.capacity_;
    ++recorder.dropped_;
  } else {
    recorder.ring_[(recorder.head_ + recorder.count_) % recorder.capacity_] =
        stamped;
    ++recorder.count_;
  }
}

}  // namespace detail

const char* flight_event_kind_name(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kArrival: return "arrival";
    case FlightEventKind::kAdmission: return "admission";
    case FlightEventKind::kRejection: return "rejection";
    case FlightEventKind::kRetryScheduled: return "retry_scheduled";
    case FlightEventKind::kDowngrade: return "downgrade";
    case FlightEventKind::kPreemption: return "preemption";
    case FlightEventKind::kDisplacement: return "displacement";
    case FlightEventKind::kReadmission: return "readmission";
    case FlightEventKind::kDeparture: return "departure";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kMigration: return "migration";
    case FlightEventKind::kBatchSeal: return "batch_seal";
    case FlightEventKind::kSloViolation: return "slo_violation";
    case FlightEventKind::kEpochSeal: return "epoch_seal";
    case FlightEventKind::kAlert: return "alert";
    case FlightEventKind::kAnomaly: return "anomaly";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder()
    : ring_(kDefaultCapacity), capacity_(kDefaultCapacity) {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder instance;
  return instance;
}

void FlightRecorder::set_enabled(bool enabled) noexcept {
  detail::g_flight_enabled.store(enabled, std::memory_order_relaxed);
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.assign(capacity, FlightEvent{});
  capacity_ = capacity;
  head_ = 0;
  count_ = 0;
  total_ = 0;
  dropped_ = 0;
}

std::size_t FlightRecorder::capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FlightEvent> events;
  events.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i)
    events.push_back(ring_[(head_ + i) % capacity_]);
  return events;
}

std::size_t FlightRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

std::uint64_t FlightRecorder::total_recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::uint64_t FlightRecorder::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void FlightRecorder::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  head_ = 0;
  count_ = 0;
  total_ = 0;
  dropped_ = 0;
}

void FlightRecorder::write_json(std::ostream& out) const {
  const std::vector<FlightEvent> events = snapshot();
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;
  std::size_t capacity = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    total = total_;
    dropped = dropped_;
    capacity = capacity_;
  }
  out << "{\n  \"schema\": \"odn-flight-record/1\",\n";
  out << "  \"capacity\": " << capacity << ",\n";
  out << "  \"total_recorded\": " << total << ",\n";
  out << "  \"dropped\": " << dropped << ",\n";
  out << "  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& event = events[i];
    out << (i == 0 ? "" : ",") << "\n    {\"seq\": " << event.seq
        << ", \"t_s\": " << json_shortest(event.time_s) << ", \"kind\": \""
        << flight_event_kind_name(event.kind) << "\"";
    if (event.task != kNoFlightTask) out << ", \"task\": " << event.task;
    if (event.cell >= 0) out << ", \"cell\": " << event.cell;
    if (event.count != 0) out << ", \"count\": " << event.count;
    if (event.value != 0.0)
      out << ", \"value\": " << json_shortest(event.value);
    if (event.detail != nullptr && *event.detail != '\0')
      out << ", \"detail\": \"" << json_escape(event.detail) << "\"";
    out << "}";
  }
  out << (events.empty() ? "" : "\n  ") << "]\n}\n";
}

std::string FlightRecorder::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

void dump_flight_record(std::ostream& out) {
  FlightRecorder::global().write_json(out);
}

bool dump_flight_record(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  FlightRecorder::global().write_json(out);
  return out.good();
}

}  // namespace odn::obs
