#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

#include "obs/obs.hpp"

namespace rfmix::runtime {

namespace {

// Innermost ScopedPool override; guarded by being set only from the thread
// that owns the ScopedPool and read before any work is fanned out.
std::atomic<ThreadPool*> g_override{nullptr};

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int workers = std::max(threads, 1) - 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
  if (workers_.empty()) {  // serial fallback: no workers to hand off to
    RFMIX_OBS_COUNT("runtime.pool.tasks_inline");
    job();
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::run_front(std::unique_lock<std::mutex>& lk) {
  std::function<void()> job = std::move(jobs_.front());
  jobs_.pop_front();
  lk.unlock();
  RFMIX_OBS_COUNT("runtime.pool.tasks_executed");
  job();
  job = nullptr;  // release what the job captured before retaking the lock
  lk.lock();
}

void ThreadPool::worker_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return stop_ || !jobs_.empty(); });
    // Shutdown drains the queue first, so no submitted job is dropped.
    if (jobs_.empty()) return;
    run_front(lk);
  }
}

void ThreadPool::assist_until(const std::function<bool()>& done) {
  using namespace std::chrono_literals;
  if (workers_.empty()) {
    // Serial fallback: jobs ran inline at submit, so `done` is normally
    // already true; yield-wait covers conditions completed off-pool.
    while (!done()) std::this_thread::sleep_for(50us);
    return;
  }
  std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
  while (!done()) {
    lk.lock();
    // Park on the workers' signal: a submit wakes us to help, and the
    // bounded wait re-checks `done` for completions signalled through other
    // channels. A wake that finds a job always runs it, so a notification
    // this thread consumed is never lost to the workers.
    cv_.wait_for(lk, 200us, [this] { return !jobs_.empty(); });
    if (!jobs_.empty()) run_front(lk);
    lk.unlock();
  }
}

int ThreadPool::configured_threads() {
  if (const char* env = std::getenv("RFMIX_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<int>(std::clamp<long>(v, 1, 512));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(configured_threads());
  return pool;
}

ThreadPool& ThreadPool::current() {
  if (ThreadPool* p = g_override.load(std::memory_order_acquire)) return *p;
  return global();
}

ScopedPool::ScopedPool(int threads)
    : pool_(threads), saved_(g_override.load(std::memory_order_acquire)) {
  g_override.store(&pool_, std::memory_order_release);
}

ScopedPool::~ScopedPool() { g_override.store(saved_, std::memory_order_release); }

}  // namespace rfmix::runtime
