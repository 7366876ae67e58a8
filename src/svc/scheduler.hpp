// Job scheduler: deduplicated, priority-ordered execution of cacheable
// computations on the runtime thread pool.
//
// A job is (content hash, compute closure), and it completes by callback
// only. The scheduler is the only writer of its ResultCache, which gives
// the two service guarantees:
//  * cache coherence — a key is computed at most once per process even
//    under concurrent submission (single-flight: later submitters of an
//    in-flight key attach their callback to the first run instead of
//    re-executing);
//  * priority — pending jobs drain highest-priority first, FIFO within a
//    priority level. With a serial pool (no workers) a job runs inline at
//    submit, so the order only shows once jobs queue behind busy workers.
//
// A caller that must block (ServerSession::handle_line, a compute closure
// waiting on another job) waits with ThreadPool::assist_until on a flag
// its callback sets, so the waiting thread runs queued jobs instead of
// starving the pool of a lane.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "svc/cache.hpp"
#include "svc/hash.hpp"

namespace rfmix::runtime {
class ThreadPool;
}

namespace rfmix::svc {

class JobScheduler {
 public:
  struct Stats {
    std::uint64_t submitted = 0;   // submit() calls
    std::uint64_t cache_hits = 0;  // served from the cache, no execution
    std::uint64_t deduped = 0;     // joined an in-flight identical job
    std::uint64_t executed = 0;    // compute closures actually run
    std::uint64_t failed = 0;      // executions that threw
  };

  struct Job {
    Hash128 key;
    std::function<std::string()> compute;
    int priority = 0;  // higher drains first
  };

  /// Completion callback: exactly one of `payload` / `err` is set;
  /// `cache_hit` (served from the cache, no execution) and `deduped`
  /// (joined an in-flight identical job) carry its provenance. Runs on
  /// whichever thread resolves the job — inline in submit for cache hits
  /// (and inline execution on a serial pool), else on the pool worker that
  /// finished the compute — so it must not block on pool work itself.
  using Completion = std::function<void(const std::string* payload,
                                        std::exception_ptr err, bool cache_hit,
                                        bool deduped)>;

  JobScheduler(ResultCache& cache, runtime::ThreadPool& pool)
      : cache_(cache), pool_(pool) {}

  /// Resolve a job — single-flight join, then cache probe, then enqueue —
  /// and invoke `done` exactly once with the result. Deduplicated
  /// submissions of an in-flight key attach their callback to the running
  /// execution, so one compute can fan out to many completions. The
  /// compute closure must be a pure function of the key's content — its
  /// payload is cached under `key` on success.
  void submit(const Job& job, Completion done);

  Stats stats() const;
  ResultCache& cache() { return cache_; }
  runtime::ThreadPool& pool() { return pool_; }

 private:
  struct Pending {
    Hash128 key;
    std::function<std::string()> compute;
    int priority = 0;
    std::uint64_t seq = 0;
  };
  struct PendingOrder {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;  // FIFO within a priority level
    }
  };

  /// The callbacks attached to one in-flight key, each with its own
  /// deduped flag.
  using Callbacks = std::vector<std::pair<Completion, bool>>;

  /// Pool task body: pop the highest-priority pending job and execute it.
  void drain_one();

  ResultCache& cache_;
  runtime::ThreadPool& pool_;
  mutable std::mutex mu_;
  std::unordered_map<Hash128, Callbacks, Hash128Hasher> inflight_;
  std::priority_queue<Pending, std::vector<Pending>, PendingOrder> heap_;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace rfmix::svc
