// Thread pool shared by every parallel analysis in the repo.
//
// One pool, sized once from RFMIX_THREADS (or hardware concurrency), runs
// the Monte-Carlo trials, DC/AC/noise sweep points and LPTV solves that are
// embarrassingly parallel across the benches. A pool of `threads` provides
// `threads` lanes of concurrency: `threads - 1` workers plus the calling
// thread, which always participates in parallel_for — so RFMIX_THREADS=1
// spawns no threads at all and every loop degrades to its plain serial
// form.
//
// Scheduling never influences results: the job APIs in parallel_for.hpp
// write each index's output to a fixed slot, and randomized analyses derive
// per-trial streams with mathx::Rng::fork. See docs/runtime.md for the
// determinism contract.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rfmix::runtime {

class ThreadPool {
 public:
  /// `threads` is the total concurrency (callers + workers); the pool
  /// spawns `threads - 1` worker threads. Values below 1 are clamped to 1.
  explicit ThreadPool(int threads);
  /// Runs every job still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of spawned worker threads (0 in serial fallback).
  int worker_count() const { return static_cast<int>(workers_.size()); }
  /// Total concurrency: workers plus the submitting thread.
  int concurrency() const { return worker_count() + 1; }

  /// Append a job to the pool's one FIFO queue; jobs start in submission
  /// order, whichever thread submits them. With no workers the job runs
  /// inline before submit returns.
  void submit(std::function<void()> job);

  /// The process-wide pool, sized from RFMIX_THREADS or, when unset,
  /// std::thread::hardware_concurrency(). Built on first use.
  static ThreadPool& global();

  /// The pool parallel_for runs on: the innermost ScopedPool override if
  /// one is active, else global().
  static ThreadPool& current();

  /// Concurrency global() would be built with: a numeric RFMIX_THREADS
  /// clamped to [1, 512], else hardware_concurrency() (at least 1).
  static int configured_threads();

  /// Run queued jobs on the calling thread until `done()` returns true.
  /// While the queue is empty the caller parks on the pool's wake signal
  /// (bounded waits, so an externally-completed `done` is noticed within
  /// ~200us) instead of spinning. This is how blocking waiters — rfmixd's
  /// blocking request path (ServerSession::handle_line), a job waiting on
  /// another job — wait without starving the pool of a lane: a worker
  /// waiting on a queued job runs it instead of deadlocking the pool.
  void assist_until(const std::function<bool()>& done);

 private:
  void worker_main();
  /// Pop the oldest job and run it with `lk` released; `lk` is held again
  /// on return.
  void run_front(std::unique_lock<std::mutex>& lk);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;  // guarded by mu_
  bool stop_ = false;                       // guarded by mu_
  std::vector<std::thread> workers_;        // last: the threads use the rest
};

/// RAII override of ThreadPool::current() — lets tests and tools pin the
/// concurrency of everything downstream without touching the environment:
///
///   runtime::ScopedPool serial(1);   // all parallel_for calls now inline
class ScopedPool {
 public:
  explicit ScopedPool(int threads);
  ~ScopedPool();

  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

  ThreadPool& pool() { return pool_; }

 private:
  ThreadPool pool_;
  ThreadPool* saved_;
};

}  // namespace rfmix::runtime
