#include "runtime/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "obs/obs.hpp"

namespace rfmix::runtime {

namespace {

// Shared between the caller and its helper jobs; kept alive by shared_ptr
// so helpers that start after the loop already drained can still exit
// cleanly through the claim counter.
struct ForState {
  std::size_t begin = 0;
  std::size_t count = 0;
  const std::function<void(std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;  // guarded by mu
  std::exception_ptr error;
};

void drain(const std::shared_ptr<ForState>& st) {
  for (;;) {
    const std::size_t k = st->next.fetch_add(1, std::memory_order_relaxed);
    if (k >= st->count) return;
    if (!st->failed.load(std::memory_order_acquire)) {
      try {
        (*st->body)(st->begin + k);
      } catch (...) {
        std::lock_guard<std::mutex> lk(st->mu);
        if (!st->error) st->error = std::current_exception();
        st->failed.store(true, std::memory_order_release);
      }
    }
    std::lock_guard<std::mutex> lk(st->mu);
    if (++st->done == st->count) st->cv.notify_all();
  }
}

}  // namespace

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (end <= begin) return;
  ThreadPool& pool = ThreadPool::current();
  const std::size_t count = end - begin;

  RFMIX_OBS_COUNT("runtime.parallel_for.calls");
  RFMIX_OBS_COUNT_N("runtime.parallel_for.chunks", count);

  if (pool.worker_count() == 0 || count == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  auto st = std::make_shared<ForState>();
  st->begin = begin;
  st->count = count;
  st->body = &body;

  // One helper per worker (capped by the indices the caller won't take);
  // helpers and caller race on the claim counter, so an oversubscribed or
  // busy pool just means the caller does more of the work itself.
  const std::size_t helpers =
      std::min<std::size_t>(static_cast<std::size_t>(pool.worker_count()), count - 1);
  for (std::size_t h = 0; h < helpers; ++h) pool.submit([st] { drain(st); });

  drain(st);
  {
    std::unique_lock<std::mutex> lk(st->mu);
    st->cv.wait(lk, [&] { return st->done == st->count; });
  }
  // Take the exception out of the shared state, so it is released on this
  // thread: a helper that exits late may drop the last reference to `st`,
  // and the exception's refcount lives in uninstrumented libstdc++, where
  // ThreadSanitizer reads that release as a race with the caller's handler.
  if (std::exception_ptr error = std::move(st->error)) std::rethrow_exception(error);
}

}  // namespace rfmix::runtime
