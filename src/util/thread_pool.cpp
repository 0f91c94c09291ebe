#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fmt.h"
#include "util/record_reader.h"

namespace odn::util {
namespace {

// Set while the current thread executes a pool task or a parallel_for lane;
// nested parallel_for calls from such a thread must not block on wait_idle
// (the enclosing task is still counted in-flight), so they run serially.
thread_local bool tl_in_parallel_region = false;

struct RegionGuard {
  bool previous;
  RegionGuard() : previous(tl_in_parallel_region) {
    tl_in_parallel_region = true;
  }
  ~RegionGuard() { tl_in_parallel_region = previous; }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t worker_count) {
  if (worker_count == 0) {
    // hardware_concurrency() returns unsigned and may legitimately report 0;
    // normalize through std::size_t and clamp to at least one worker.
    const auto hardware =
        static_cast<std::size_t>(std::thread::hardware_concurrency());
    worker_count = std::max<std::size_t>(std::size_t{1}, hardware);
  }
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  const RegionGuard region;  // everything on a worker thread is pool work
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    {
      ODN_TRACE_SPAN("pool", "pool.task");
      task();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

bool ThreadPool::in_parallel_region() noexcept {
  return tl_in_parallel_region;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t lanes = std::min(count, worker_count() + 1);
  if (lanes <= 1 || tl_in_parallel_region) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  // Chunked dynamic scheduling: each lane grabs small index ranges to keep
  // load balanced without per-index atomics dominating.
  const std::size_t chunk = std::max<std::size_t>(1, count / (lanes * 8));
  auto lane_body = [&] {
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk);
      if (begin >= count) return;
      const std::size_t end = std::min(count, begin + chunk);
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  for (std::size_t lane = 0; lane + 1 < lanes; ++lane) submit(lane_body);
  {
    const RegionGuard region;  // the caller participates as a lane
    lane_body();
  }
  wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

namespace {

// ODN_THREADS: empty or 0 means auto; anything else must be a count up to
// kMaxThreads under the flag token rules, or resolving the pool throws.
constexpr std::size_t kMaxThreads = 1024;

std::size_t env_thread_count() {
  const char* env = std::getenv("ODN_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const std::optional<std::uint64_t> count = parse_count(env, kMaxThreads);
  if (!count)
    throw std::invalid_argument(
        fmt("ODN_THREADS: bad value '{}' (want an integer in [0, {}]; "
            "empty or 0 means auto)",
            env, kMaxThreads));
  return static_cast<std::size_t>(*count);
}

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested == 0) requested = env_thread_count();
  if (requested == 0)
    requested = static_cast<std::size_t>(std::thread::hardware_concurrency());
  return std::max<std::size_t>(std::size_t{1}, requested);
}

struct GlobalPoolState {
  std::mutex mutex;
  std::unique_ptr<ThreadPool> pool;
  std::size_t count = 0;  // 0 = not resolved yet
};

GlobalPoolState& global_state() {
  static GlobalPoolState state;
  return state;
}

}  // namespace

ThreadPool& global_pool() {
  GlobalPoolState& state = global_state();
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.pool) {
    if (state.count == 0) state.count = resolve_thread_count(0);
    state.pool = std::make_unique<ThreadPool>(state.count);
  }
  return *state.pool;
}

std::size_t global_thread_count() {
  GlobalPoolState& state = global_state();
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (state.count == 0) state.count = resolve_thread_count(0);
  return state.count;
}

void set_thread_count(std::size_t count) {
  GlobalPoolState& state = global_state();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.pool.reset();  // joins workers; callers must be idle
  state.count = resolve_thread_count(count);
  // Rebuilt lazily by the next global_pool() call.
}

void global_parallel_for(std::size_t count,
                         const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Dispatch metrics count call sites and index totals — both are
  // thread-count invariant (the serial fallback counts identically), so
  // they stay inside the deterministic-snapshot contract. Per-lane or
  // per-chunk counts would not be; those exist only as trace spans.
  static obs::Counter& dispatches =
      obs::MetricsRegistry::global().counter("odn_pool_parallel_for_total");
  static obs::Counter& indices = obs::MetricsRegistry::global().counter(
      "odn_pool_parallel_indices_total");
  dispatches.inc();
  indices.inc(count);
  if (count == 1 || ThreadPool::in_parallel_region() ||
      global_thread_count() <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  ODN_TRACE_SPAN("pool", "pool.parallel_for");
  global_pool().parallel_for(count, body);
}

}  // namespace odn::util
