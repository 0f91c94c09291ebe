#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace odn::util {
namespace {

TEST(ThreadPool, DefaultWorkerCountPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSingleIndex) {
  ThreadPool pool(2);
  int value = 0;
  pool.parallel_for(1, [&value](std::size_t i) { value = static_cast<int>(i) + 7; });
  EXPECT_EQ(value, 7);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> counter{0};
  pool.parallel_for(10, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SharedPoolSingleton) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long> partial(257, 0);
  pool.parallel_for(257, [&partial](std::size_t i) {
    partial[i] = static_cast<long>(i) * 3;
  });
  const long total = std::accumulate(partial.begin(), partial.end(), 0L);
  EXPECT_EQ(total, 3L * 256 * 257 / 2);
}

// ODN_THREADS follows the count token rules: empty or 0 is auto, anything
// malformed or above the cap throws an error that names the variable.
TEST(GlobalPool, ThreadEnvIsStrict) {
  const char* saved = std::getenv("ODN_THREADS");
  const std::optional<std::string> restore =
      saved ? std::optional<std::string>(saved) : std::nullopt;
  for (const char* bad : {"abc", "-1", "4x", "2000", "+2", " 2"}) {
    ::setenv("ODN_THREADS", bad, 1);
    try {
      set_thread_count(0);
      ADD_FAILURE() << "accepted ODN_THREADS=" << bad;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("ODN_THREADS"),
                std::string::npos)
          << error.what();
    }
  }
  for (const char* good : {"", "0", "3"}) {
    ::setenv("ODN_THREADS", good, 1);
    EXPECT_NO_THROW(set_thread_count(0)) << "ODN_THREADS=" << good;
  }
  EXPECT_EQ(global_thread_count(), 3u);
  if (restore)
    ::setenv("ODN_THREADS", restore->c_str(), 1);
  else
    ::unsetenv("ODN_THREADS");
  set_thread_count(0);
}

}  // namespace
}  // namespace odn::util
