// Thread-pool and parallel_for machinery tests: scheduling edge cases the
// analyses rely on — exception propagation, empty ranges, nesting,
// oversubscription, serial fallback — exercised directly on the runtime
// primitives rather than through a circuit.
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace rfmix::runtime {
namespace {

// Holds pool workers inside jobs until release(), so a test can queue work
// behind busy workers and know that none of it has started.
class WorkerGate {
 public:
  /// Submit `n` blocking jobs and return once all `n` run, one per worker.
  void hold(ThreadPool& pool, int n) {
    for (int i = 0; i < n; ++i) {
      pool.submit([this] {
        std::unique_lock<std::mutex> lk(mu_);
        ++held_;
        cv_.notify_all();
        cv_.wait(lk, [this] { return open_; });
      });
    }
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return held_ == n; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int held_ = 0;
  bool open_ = false;
};

TEST(ThreadPool, SpawnsOneFewerWorkerThanRequested) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 3);
  EXPECT_EQ(pool.concurrency(), 4);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 0);
  // With no workers, submit must execute the job before returning.
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, ClampsNonPositiveThreadCounts) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0);
  ThreadPool neg(-3);
  EXPECT_EQ(neg.worker_count(), 0);
}

TEST(ThreadPool, ScopedPoolOverridesCurrent) {
  ThreadPool& before = ThreadPool::current();
  {
    ScopedPool scoped(3);
    EXPECT_EQ(&ThreadPool::current(), &scoped.pool());
    {
      ScopedPool inner(1);
      EXPECT_EQ(&ThreadPool::current(), &inner.pool());
    }
    EXPECT_EQ(&ThreadPool::current(), &scoped.pool());
  }
  EXPECT_EQ(&ThreadPool::current(), &before);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  ScopedPool scoped(4);
  std::atomic<int> calls{0};
  parallel_for(0, 0, [&](std::size_t) { ++calls; });
  parallel_for(7, 7, [&](std::size_t) { ++calls; });
  parallel_for(9, 3, [&](std::size_t) { ++calls; });  // inverted: empty
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ScopedPool scoped(8);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, PropagatesFirstException) {
  ScopedPool scoped(4);
  std::atomic<int> started{0};
  try {
    parallel_for(0, 64, [&](std::size_t i) {
      ++started;
      if (i == 5) throw std::runtime_error("boom");
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // The loop drained before rethrowing: no task is still running, and at
  // least the throwing index executed.
  EXPECT_GE(started.load(), 1);
}

TEST(ParallelFor, ExceptionInSerialFallbackPropagates) {
  ScopedPool scoped(1);
  EXPECT_THROW(
      parallel_for(0, 4, [](std::size_t i) {
        if (i == 2) throw std::invalid_argument("serial");
      }),
      std::invalid_argument);
}

TEST(ParallelFor, NestedParallelForCompletes) {
  ScopedPool scoped(4);
  constexpr std::size_t kOuter = 8, kInner = 32;
  std::vector<std::vector<int>> grid(kOuter, std::vector<int>(kInner, 0));
  parallel_for(0, kOuter, [&](std::size_t o) {
    parallel_for(0, kInner, [&](std::size_t i) { grid[o][i] = static_cast<int>(o * kInner + i); });
  });
  for (std::size_t o = 0; o < kOuter; ++o)
    for (std::size_t i = 0; i < kInner; ++i)
      EXPECT_EQ(grid[o][i], static_cast<int>(o * kInner + i));
}

TEST(ParallelFor, OversubscriptionManySmallLoops) {
  // Far more tasks than lanes, repeatedly, to shake out lost-wakeup and
  // double-claim bugs in the queue and the claim counter.
  ScopedPool scoped(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    parallel_for(0, 256, [&](std::size_t i) { sum += static_cast<long>(i); });
    EXPECT_EQ(sum.load(), 256L * 255L / 2L);
  }
}

TEST(ParallelMap, PreservesIndexOrder) {
  ScopedPool scoped(8);
  const auto out = parallel_map(500, [](std::size_t i) { return 3.0 * static_cast<double>(i); });
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_DOUBLE_EQ(out[i], 3.0 * static_cast<double>(i));
}

TEST(ThreadPool, AssistUntilRunsQueuedWorkOnTheWaitingThread) {
  ThreadPool pool(2);  // one worker; the assisting caller is the second lane
  std::atomic<int> done_count{0};
  constexpr int kJobs = 64;
  for (int i = 0; i < kJobs; ++i) pool.submit([&] { ++done_count; });
  pool.assist_until([&] { return done_count.load() >= kJobs; });
  EXPECT_EQ(done_count.load(), kJobs);
}

TEST(ThreadPool, AssistUntilReturnsOnExternallyCompletedCondition) {
  // Nothing queued: the waiter parks on the pool's wake signal and must
  // still notice a condition completed by a non-pool thread.
  ThreadPool pool(4);
  std::atomic<bool> flag{false};
  std::thread external([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    flag.store(true);
  });
  pool.assist_until([&] { return flag.load(); });
  EXPECT_TRUE(flag.load());
  external.join();
}

TEST(ThreadPool, AssistUntilSerialFallback) {
  ThreadPool pool(1);  // no workers: submit runs inline
  int ran = 0;
  pool.submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);
  pool.assist_until([&] { return ran == 1; });  // must not hang
}

TEST(ThreadPool, OneWorkerStartsJobsInSubmissionOrder) {
  // Locals the jobs touch are declared before the pool, so the pool (and
  // its worker) is gone before they are.
  WorkerGate gate;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> started;
  constexpr int kJobs = 16;
  ThreadPool pool(2);  // one worker; the test thread never assists
  gate.hold(pool, 1);
  for (int i = 0; i < kJobs; ++i) {
    pool.submit([&, i] {
      std::lock_guard<std::mutex> lk(mu);
      started.push_back(i);
      cv.notify_all();
    });
  }
  gate.release();
  std::vector<int> expected(kJobs);
  std::iota(expected.begin(), expected.end(), 0);
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return started.size() == expected.size(); });
  EXPECT_EQ(started, expected);
}

TEST(ThreadPool, DestructorRunsEveryQueuedJob) {
  WorkerGate gate;
  std::atomic<int> ran{0};
  constexpr int kJobs = 100;
  auto pool = std::make_unique<ThreadPool>(3);  // two workers, both held busy
  gate.hold(*pool, 2);
  for (int i = 0; i < kJobs; ++i) pool->submit([&] { ++ran; });
  EXPECT_EQ(ran.load(), 0);
  // Start the shutdown while both workers are still held (the sleep lets
  // the destructor raise its stop flag first), then release them: the
  // workers must still run the whole queue before they exit.
  std::thread destroyer([&] { pool.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();
  destroyer.join();
  EXPECT_EQ(ran.load(), kJobs);
}

TEST(ThreadPool, ConfiguredThreadsHonorsEnv) {
  // setenv/getenv is process-global; restore whatever was there.
  const char* old = std::getenv("RFMIX_THREADS");
  const std::string saved = old ? old : "";
  ::setenv("RFMIX_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::configured_threads(), 3);
  ::setenv("RFMIX_THREADS", "0", 1);  // clamped up to 1
  EXPECT_EQ(ThreadPool::configured_threads(), 1);
  ::setenv("RFMIX_THREADS", "-4", 1);
  EXPECT_EQ(ThreadPool::configured_threads(), 1);
  ::setenv("RFMIX_THREADS", "100000", 1);  // clamped down to 512
  EXPECT_EQ(ThreadPool::configured_threads(), 512);
  ::setenv("RFMIX_THREADS", "many", 1);  // not a number: hardware fallback
  EXPECT_EQ(ThreadPool::configured_threads(),
            static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  if (old)
    ::setenv("RFMIX_THREADS", saved.c_str(), 1);
  else
    ::unsetenv("RFMIX_THREADS");
}

}  // namespace
}  // namespace rfmix::runtime
