// JobScheduler tests: single-flight deduplication, priority draining,
// failure propagation, nested waits, and the cache bit-exactness property
// at 1 and 8 threads.
#include "svc/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"
#include "svc/request.hpp"

namespace rfmix::svc {
namespace {

JobScheduler::Job job_of(const std::string& tag, std::function<std::string()> fn,
                         int priority = 0) {
  return JobScheduler::Job{hash128(tag), std::move(fn), priority};
}

/// Submit `job` and help the pool until its callback has run: the blocking
/// pattern ServerSession::handle_line uses. Rethrows a failed compute.
std::string run(JobScheduler& sched, const JobScheduler::Job& job) {
  std::string payload;
  std::exception_ptr err;
  std::atomic<bool> done{false};
  sched.submit(job, [&](const std::string* p, std::exception_ptr e, bool, bool) {
    if (p != nullptr) payload = *p;
    err = e;
    done.store(true, std::memory_order_release);
  });
  sched.pool().assist_until([&] { return done.load(std::memory_order_acquire); });
  if (err) std::rethrow_exception(err);
  return payload;
}

TEST(JobScheduler, RunExecutesAndCaches) {
  runtime::ScopedPool pool(2);
  ResultCache cache(16);
  JobScheduler sched(cache, pool.pool());
  std::atomic<int> runs{0};
  const auto job = job_of("k1", [&] {
    ++runs;
    return std::string("result");
  });
  EXPECT_EQ(run(sched, job), "result");
  EXPECT_EQ(run(sched, job), "result");  // cache hit, no second execution
  EXPECT_EQ(runs.load(), 1);
  const auto s = sched.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.executed, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.deduped, 0u);
}

TEST(JobScheduler, SingleFlightDedupesConcurrentIdenticalJobs) {
#if RFMIX_OBS_ENABLED
  const std::uint64_t exec0 = obs::counter_value("svc.jobs.executed");
  const std::uint64_t sub0 = obs::counter_value("svc.jobs.submitted");
  const std::uint64_t dedup0 = obs::counter_value("svc.jobs.deduped");
#endif
  runtime::ScopedPool pool(8);
  ResultCache cache(16);
  JobScheduler sched(cache, pool.pool());

  constexpr int kClients = 16;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> executions{0};

  // The compute blocks until every client has submitted, so all kClients
  // submissions overlap one in-flight execution.
  const auto job = job_of("shared", [&] {
    ++executions;
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
    return std::string("shared-result");
  });

  std::vector<std::string> results(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> submitted{0};
  std::atomic<int> completed{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      sched.submit(job, [&, i](const std::string* p, std::exception_ptr, bool, bool) {
        results[i] = p != nullptr ? *p : "failed";
        completed.fetch_add(1, std::memory_order_release);
      });
      ++submitted;
    });
  }
  while (submitted.load() < kClients) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& t : clients) t.join();
  pool.pool().assist_until(
      [&] { return completed.load(std::memory_order_acquire) == kClients; });

  for (const std::string& r : results) EXPECT_EQ(r, "shared-result");
  EXPECT_EQ(executions.load(), 1);

  const auto s = sched.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.executed, 1u);
  EXPECT_EQ(s.deduped + s.cache_hits, static_cast<std::uint64_t>(kClients - 1));
  EXPECT_GE(s.deduped, 1u);  // the blocked execution guarantees real joins
#if RFMIX_OBS_ENABLED
  EXPECT_EQ(obs::counter_value("svc.jobs.executed") - exec0, 1u);
  EXPECT_EQ(obs::counter_value("svc.jobs.submitted") - sub0,
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(obs::counter_value("svc.jobs.deduped") - dedup0, s.deduped);
#endif
}

TEST(JobScheduler, DrainsByPriorityBehindABusyWorker) {
  // One worker, held by a blocker while four jobs queue behind it: once
  // released, the worker drains them highest priority first, FIFO within
  // a level. The test thread waits without assisting, so the worker is the
  // only thread that drains and the order is deterministic.
  runtime::ScopedPool pool(2);  // 1 worker + caller
  ResultCache cache(16);
  JobScheduler sched(cache, pool.pool());
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocking{false};
  std::vector<std::string> order;  // guarded by mu
  std::atomic<int> completed{0};
  const auto count = [&](const std::string*, std::exception_ptr, bool, bool) {
    completed.fetch_add(1, std::memory_order_release);
  };

  sched.submit(job_of("blocker", [&] {
    blocking.store(true);
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
    return std::string("blocker");
  }, 100), count);
  while (!blocking.load()) std::this_thread::yield();

  for (const auto& [tag, priority] : std::vector<std::pair<std::string, int>>{
           {"low1", 0}, {"high", 10}, {"low2", 0}, {"mid", 5}}) {
    sched.submit(job_of(tag, [&mu, &order, tag = tag] {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(tag);
      return tag;
    }, priority), count);
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  while (completed.load(std::memory_order_acquire) < 5)
    std::this_thread::sleep_for(std::chrono::microseconds(100));

  std::lock_guard<std::mutex> lk(mu);
  const std::vector<std::string> expected = {"high", "mid", "low1", "low2"};
  EXPECT_EQ(order, expected);
}

TEST(JobScheduler, FailurePropagatesAndIsNotCached) {
  runtime::ScopedPool pool(2);
  ResultCache cache(16);
  JobScheduler sched(cache, pool.pool());
  std::atomic<int> attempts{0};
  const auto job = job_of("flaky", [&]() -> std::string {
    if (++attempts == 1) throw std::runtime_error("transient failure");
    return "recovered";
  });
  EXPECT_THROW(run(sched, job), std::runtime_error);
  EXPECT_EQ(run(sched, job), "recovered");  // failure was not cached
  const auto s = sched.stats();
  EXPECT_EQ(s.executed, 2u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(JobScheduler, NestedWaitWithAssistUntilDoesNotDeadlock) {
  // A compute closure that submits a second job and waits for it must not
  // deadlock even when the pool has a single worker: it waits with
  // assist_until, which runs the queued inner job on the waiting thread.
  runtime::ScopedPool pool(2);  // 1 worker + caller
  ResultCache cache(16);
  JobScheduler sched(cache, pool.pool());
  const auto inner = job_of("inner", [] { return std::string("deep"); });
  const auto outer = job_of("outer", [&] { return "outer+" + run(sched, inner); });
  EXPECT_EQ(run(sched, outer), "outer+deep");
}

// --- the acceptance property: cached results are bit-identical ------------

void expect_bit_identical_cold_warm(int threads) {
  runtime::ScopedPool pool(threads);
  ResultCache cache(64);
  JobScheduler sched(cache, pool.pool());

  Request req;
  req.kind = RequestKind::kMixerMetric;
  req.metric.metric = core::MixerMetric::kGainDb;
  req.metric.f_rf_hz = 2.45e9;
  const Hash128 key = request_key(req);
  const auto job = JobScheduler::Job{key, [req] { return execute_request(req); }, 0};

  const std::string cold = run(sched, job);
  const std::string warm = run(sched, job);
  const std::string direct = execute_request(req);
  EXPECT_EQ(cold, warm) << "threads=" << threads;
  EXPECT_EQ(cold, direct) << "threads=" << threads;
  EXPECT_EQ(sched.stats().executed, 1u);
  EXPECT_EQ(sched.stats().cache_hits, 1u);
}

TEST(JobScheduler, CachedResultsBitIdenticalSerial) { expect_bit_identical_cold_warm(1); }

TEST(JobScheduler, CachedResultsBitIdenticalEightThreads) {
  expect_bit_identical_cold_warm(8);
}

}  // namespace
}  // namespace rfmix::svc
