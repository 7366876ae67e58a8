#include "svc/scheduler.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

namespace rfmix::svc {

void JobScheduler::submit(const Job& job, Completion done) {
  std::unique_lock<std::mutex> lk(mu_);
  ++stats_.submitted;
  RFMIX_OBS_COUNT("svc.jobs.submitted");
  // Single-flight: the in-flight check and the cache probe happen under one
  // lock, so a key is either joined, served, or enqueued — never raced into
  // a second execution.
  if (const auto it = inflight_.find(job.key); it != inflight_.end()) {
    ++stats_.deduped;
    RFMIX_OBS_COUNT("svc.jobs.deduped");
    it->second.emplace_back(std::move(done), /*deduped=*/true);
    return;
  }
  if (auto hit = cache_.get(job.key)) {
    ++stats_.cache_hits;
    lk.unlock();
    const std::string payload = std::move(*hit);
    done(&payload, nullptr, /*cache_hit=*/true, /*deduped=*/false);
    return;
  }
  inflight_[job.key].emplace_back(std::move(done), /*deduped=*/false);
  heap_.push(Pending{job.key, job.compute, job.priority, next_seq_++});
  lk.unlock();
  // Each pool task drains one pending job — not necessarily the one pushed
  // above; the heap decides, which is what makes priority work. On a serial
  // pool this runs the job (and its completion) inline before returning, so
  // callers must tolerate synchronous completion.
  pool_.submit([this] { drain_one(); });
}

void JobScheduler::drain_one() {
  Pending p;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (heap_.empty()) return;
    p = heap_.top();
    heap_.pop();
  }
  std::string payload;
  std::exception_ptr err;
  {
    RFMIX_OBS_SCOPED_TIMER("svc.jobs.exec");
    try {
      payload = p.compute();
    } catch (...) {
      err = std::current_exception();
    }
  }
  if (!err) {
    // Publish to the cache before leaving the in-flight set so a submitter
    // arriving in between sees a hit rather than re-executing.
    cache_.put(p.key, payload);
  }
  Callbacks callbacks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (const auto it = inflight_.find(p.key); it != inflight_.end()) {
      callbacks = std::move(it->second);
      inflight_.erase(it);
    }
    ++stats_.executed;
    if (err) ++stats_.failed;
  }
  RFMIX_OBS_COUNT("svc.jobs.executed");
  if (err) RFMIX_OBS_COUNT("svc.jobs.failed");
  for (auto& [done, deduped] : callbacks) {
    if (err)
      done(nullptr, err, /*cache_hit=*/false, deduped);
    else
      done(&payload, nullptr, /*cache_hit=*/false, deduped);
  }
}

JobScheduler::Stats JobScheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace rfmix::svc
