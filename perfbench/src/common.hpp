// Shared plumbing for the rfmix benchmark harness: options, the seeded
// input generator, spans, percentiles, the per-run result, and process
// metrics (peak RSS, set-up probes, obs counter deltas).
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of this process, all threads [s]. Time spent waiting for a CPU
/// (the host's other load, steal) is not in it, so on a shared host it
/// moves with the program's work, not with its neighbours.
double process_cpu_s();
/// CPU time of another process `pid`, all threads [s]; -1 if unreadable.
double process_cpu_s(int pid);

/// Core-speed normalisation. On a shared host a vCPU's speed swings by up
/// to 1.7x within seconds (other tenants on the same physical core), and
/// CPU time swings with it. A fixed probe kernel (a small dense LU and
/// exp/log1p evaluations, all in L1) run on the same core at the same time
/// as the work measures that speed: a CPU time multiplied by
/// kProbeRefUs / (probe time) is the time the work takes on the reference
/// core, the one on which the probe takes kProbeRefUs (see
/// on_reference_core). That core is the uncontended state of the 4-vCPU
/// Xeon VM the benchmark was tuned on.
constexpr double kProbeRefUs = 6.5;

/// Time the probe kernel on this thread [us] (CPU time of one run, after
/// one untimed warm-up run).
double probe_us();

/// `cpu_s` measured on a core where the probe took `probe_us`, rescaled to
/// the reference core, when a share `sensitivity` of the work slows with
/// the core as the probe does and the rest not at all. The library
/// operations are floating-point solver code like the probe and follow it
/// (1: the probe's time correlates 0.98-0.99 with theirs). Set-up is exec
/// and page faults: over 7,231 medians of 31 library set-ups with the probe
/// between 7.3 and 21.4 us, the medians spread least at 0.5 (IQR/median
/// 0.023, against 0.20 at 1 and 0.36 not rescaled): kSetupSensitivity.
/// svc requests are syscalls, context switches and
/// cache misses between four processes on one CPU; over 16 runs with the
/// probe between 9.7 and 17.1 us, their rescaled CPU times spread least
/// near a sensitivity of 0.5 (IQR/median 0.02-0.10, against 0.05-0.13 at
/// 1): kRequestSensitivity.
inline double on_reference_core(double cpu_s, double probe_us, double sensitivity = 1.0) {
  return cpu_s / (1.0 + sensitivity * (probe_us / kProbeRefUs - 1.0));
}
constexpr double kSetupSensitivity = 0.5;
constexpr double kRequestSensitivity = 0.5;

/// While alive, ITIMER_PROF fires every kSampleMs of this process's CPU
/// time and the signal handler runs the probe on the thread that is
/// running then, so a long operation carries its own speed samples.
class SpeedSampler {
 public:
  static constexpr int kSampleMs = 5;
  SpeedSampler();
  ~SpeedSampler();
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  struct Totals {
    double probe_s = 0.0;    // CPU time of the timed probe runs
    double handler_s = 0.0;  // CPU time of the signal handlers in all
    std::uint64_t probes = 0;
  };
  static Totals totals();
};

/// CPU time of `f` on the reference core [s]: the process CPU time it took,
/// less the signal handlers', rescaled by the probes' mean time during it. Needs a live SpeedSampler; an `f` too short to be sampled is
/// rescaled by one probe run after it. The mean probe time goes to
/// `mean_probe_us_out` when given.
template <class F>
double ref_cpu_timed(F&& f, double* mean_probe_us_out = nullptr) {
  const SpeedSampler::Totals t0 = SpeedSampler::totals();
  const double c0 = process_cpu_s();
  f();
  const double cpu_s = process_cpu_s() - c0;
  const SpeedSampler::Totals t1 = SpeedSampler::totals();
  const std::uint64_t probes = t1.probes - t0.probes;
  const double mean_probe_us =
      probes > 0 ? 1e6 * (t1.probe_s - t0.probe_s) / static_cast<double>(probes) : probe_us();
  if (mean_probe_us_out != nullptr) *mean_probe_us_out = mean_probe_us;
  return on_reference_core(cpu_s - (t1.handler_s - t0.handler_s), mean_probe_us);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // reports, traces and daemon sockets go here
};

/// splitmix64: the same seed gives the same inputs on every platform and
/// standard library (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);
  double log_uniform(double lo, double hi);
  int below(int n);  // uniform in [0, n)

 private:
  std::uint64_t s_;
};

/// Mix a run seed with a stream tag so each workload/connection draws an
/// independent stream.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// `v` with all 17 significant digits (JSON numbers, cache-key params).
std::string full_digits(double v);

/// Linearly interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Run `f` inside a span called `name` and return its wall time [s]. The
/// span is an obs trace scope, so while obs tracing is on it lands in the
/// exported trace, nested under whatever span encloses it (its parent).
/// `name` must outlive the call (string literals).
template <class F>
double timed(const char* name, F&& f) {
  rfmix::obs::TraceScope scope(name);
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// FNV-1a over the generated inputs: the run report records it so a test
/// can tell that a seed changed (or kept) what the program was given.
class Digest {
 public:
  void add(const void* data, std::size_t n);
  void add(double v) { add(&v, sizeof v); }
  void add(const std::string& s) { add(s.data(), s.size()); }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// What one run reports: operations attempted/failed, the correctness
/// verdict, and named metrics with units in insertion order.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t check_failures = 0;
  Digest inputs;  // of the traced pass's generated inputs
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  bool correct() const { return check_failures == 0; }
  void add(const std::string& name, double value, const std::string& unit);
  /// A failed output check (logged to stderr).
  void fail(const std::string& why);
};

/// Run one operation: counts it as attempted, and as failed when it throws
/// or any check inside it fails.
template <class F>
void run_op(Result& r, F&& f) {
  const std::int64_t before = r.check_failures;
  ++r.attempted;
  try {
    f();
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  }
  if (r.check_failures != before) ++r.failed;
}

/// Peak resident set of this process [MB].
double peak_rss_mb_self();
/// Peak resident set (VmHWM) of `pid` [MB]; 0 if it cannot be read.
double vm_hwm_mb(int pid);
/// Direct children of `pid` (from /proc).
std::vector<int> child_pids(int pid);

/// Median of `reps` set-up probes: this binary re-executed with
/// --setup-probe; each reports the CPU time it spent from the exec to the
/// point where it is ready for its first timed operation.
double library_setup_s(const Options& opt, int reps);

/// Snapshot of every obs counter and timer (timer totals in seconds).
struct Telemetry {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> timers_s;
  static Telemetry now();
  /// this - earlier, per instrument.
  Telemetry since(const Telemetry& earlier) const;
  double count(const std::string& name) const;
  double timer_s(const std::string& name) const;
};

/// Counter-derived per-layer metrics every workload reports from its
/// traced pass: solver work counts, ratios and their bases.
void add_counter_metrics(const Telemetry& delta, Result& r);

/// Per-layer metric catalogue: every name the traced run prints, with its
/// unit. A workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue();

}  // namespace perfbench
