// Solver observability: named counters and scoped wall-clock timers.
//
// Every hot analysis loop in the simulator (Newton, transient stepping,
// AC/noise sweeps, LPTV conversion solves, the thread pool) reports what it
// did through this registry, so benches and tests can ask "how many Newton
// iterations / LU factorizations / rejected steps did that run take, and
// where did the time go" without perturbing the numerics. Telemetry is
// strictly out-of-band: nothing in here ever feeds back into solver state,
// so the PR 2 determinism contract (bit-identical results at any thread
// count) is untouched.
//
// Concurrency model:
//  * Counters are single atomics with relaxed increments. For analyses that
//    are deterministic under the runtime pool, the *work* per index is
//    schedule-independent, so counter totals are identical at any thread
//    count even though increment order is not.
//  * Timers accumulate into thread-local slabs (one cell per timer per
//    thread, no sharing on the hot path); reads aggregate live slabs plus
//    totals retired by exited threads. This is what keeps ScopedTimer cheap
//    on pool workers.
//
// Compile-time gate: configure with -DRFMIX_OBS=OFF and RFMIX_OBS_ENABLED
// becomes 0 — the RFMIX_OBS_* macros expand to nothing and the classes
// below collapse to stateless no-ops, so instrumented code compiles
// unchanged at zero cost.
//
// See docs/observability.md for the counter/timer catalogue and naming
// conventions.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef RFMIX_OBS_ENABLED
#define RFMIX_OBS_ENABLED 1
#endif

#if RFMIX_OBS_ENABLED
#include <atomic>
#endif

namespace rfmix::obs {

/// Point-in-time value of one named counter.
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

/// Point-in-time aggregate of one named timer.
struct TimerSnapshot {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
};

/// Everything the registry knows, with entries sorted by name so snapshots
/// compare and serialize deterministically.
struct TelemetrySnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<TimerSnapshot> timers;
};

#if RFMIX_OBS_ENABLED

/// Monotonic event counter. Created through obs::counter(); references stay
/// valid for the life of the process.
class Counter {
 public:
  void add(std::uint64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  void increment() noexcept { add(1); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const noexcept { return name_; }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Wall-clock accumulator fed by ScopedTimer. Aggregation (calls/total_ns)
/// sums the per-thread slabs, so concurrent scopes on pool workers never
/// contend with each other.
class Timer {
 public:
  std::uint64_t calls() const;
  std::uint64_t total_ns() const;
  double total_s() const { return static_cast<double>(total_ns()) * 1e-9; }
  const std::string& name() const noexcept { return name_; }

  /// Credit one call of `ns` nanoseconds without a ScopedTimer (used by
  /// tests and by code that measures intervals itself).
  void record(std::uint64_t ns);

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  friend class Registry;
  friend class ScopedTimer;
  Timer(std::string name, std::size_t id) : name_(std::move(name)), id_(id) {}

  std::string name_;
  std::size_t id_;
};

/// RAII wall-clock scope: measures construction-to-destruction and credits
/// the interval to the timer on the thread that ran the scope.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer)
      : timer_(timer), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    timer_.record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0u);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer& timer_;
  std::chrono::steady_clock::time_point start_;
};

#else  // !RFMIX_OBS_ENABLED — stateless stand-ins, same API surface.

class Counter {
 public:
  void add(std::uint64_t) noexcept {}
  void increment() noexcept {}
  std::uint64_t value() const noexcept { return 0; }
  const std::string& name() const noexcept {
    static const std::string kEmpty;
    return kEmpty;
  }
};

class Timer {
 public:
  std::uint64_t calls() const { return 0; }
  std::uint64_t total_ns() const { return 0; }
  double total_s() const { return 0.0; }
  const std::string& name() const noexcept {
    static const std::string kEmpty;
    return kEmpty;
  }
  void record(std::uint64_t) {}
};

class ScopedTimer {
 public:
  explicit ScopedTimer(Timer&) {}
};

#endif  // RFMIX_OBS_ENABLED

/// Look up (creating on first use) the counter / timer with this name.
/// Thread-safe; the returned reference is stable for the process lifetime.
/// In a disabled build both return a shared no-op instance.
Counter& counter(std::string_view name);
Timer& timer(std::string_view name);

/// Value of the named counter, or 0 if it was never created.
std::uint64_t counter_value(std::string_view name);

/// Sorted snapshot of every registered counter and timer.
TelemetrySnapshot snapshot();

/// Zero every counter and timer. Only meaningful while no instrumented
/// work is in flight (tests call this between phases; benches never do).
void reset_all();

// ---------------------------------------------------------------------------
// Instrumentation macros. The `name` argument must be a string literal (the
// registry reference is cached in a function-local static, so one call site
// must always name the same instrument). With RFMIX_OBS_ENABLED=0 they
// expand to nothing.
// ---------------------------------------------------------------------------

#if RFMIX_OBS_ENABLED

#define RFMIX_OBS_CONCAT_IMPL(a, b) a##b
#define RFMIX_OBS_CONCAT(a, b) RFMIX_OBS_CONCAT_IMPL(a, b)

/// Add `n` to the named counter.
#define RFMIX_OBS_COUNT_N(name, n)                                     \
  do {                                                                 \
    static ::rfmix::obs::Counter& rfmix_obs_counter_ =                 \
        ::rfmix::obs::counter(name);                                   \
    rfmix_obs_counter_.add(static_cast<std::uint64_t>(n));             \
  } while (0)

/// Increment the named counter by one.
#define RFMIX_OBS_COUNT(name) RFMIX_OBS_COUNT_N(name, 1)

/// Time the rest of the enclosing block against the named timer. Declares
/// local objects — use inside a braced scope.
#define RFMIX_OBS_SCOPED_TIMER(name)                                   \
  static ::rfmix::obs::Timer& RFMIX_OBS_CONCAT(rfmix_obs_timer_,       \
                                               __LINE__) =            \
      ::rfmix::obs::timer(name);                                       \
  ::rfmix::obs::ScopedTimer RFMIX_OBS_CONCAT(rfmix_obs_timer_scope_,   \
                                             __LINE__)(               \
      RFMIX_OBS_CONCAT(rfmix_obs_timer_, __LINE__))

#else

#define RFMIX_OBS_COUNT_N(name, n) \
  do {                             \
  } while (0)
#define RFMIX_OBS_COUNT(name) \
  do {                        \
  } while (0)
#define RFMIX_OBS_SCOPED_TIMER(name) \
  do {                               \
  } while (0)

#endif  // RFMIX_OBS_ENABLED

}  // namespace rfmix::obs
