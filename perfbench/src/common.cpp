#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "obs/obs.hpp"

namespace perfbench {

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  if (::clock_gettime(id, &ts) != 0) return -1.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double process_cpu_s(int pid) {
  clockid_t id{};
  if (::clock_getcpuclockid(pid, &id) != 0) return -1.0;
  return clock_s(id);
}

namespace {

volatile double g_probe_sink = 0.0;

/// The probe kernel: eight 16x16 dense LU eliminations, each followed by
/// exp/log1p over the result. Stack arrays only: it runs in a signal
/// handler, possibly on two threads at once.
double probe_kernel() {
  double x = 0.0;
  for (int rep = 0; rep < 8; ++rep) {
    double a[16][16], b[16];
    for (int i = 0; i < 16; ++i) {
      b[i] = 1.0;
      for (int j = 0; j < 16; ++j)
        a[i][j] = (i == j ? 16.0 : 0.0) + ((i * 7 + j * 3 + rep) % 11) * 0.1;
    }
    for (int k = 0; k < 16; ++k) {
      for (int i = k + 1; i < 16; ++i) {
        const double f = a[i][k] / a[k][k];
        for (int j = k; j < 16; ++j) a[i][j] -= f * a[k][j];
        b[i] -= f * b[k];
      }
    }
    for (int i = 0; i < 16; ++i) {
      const double v = b[i] * 1e-3;
      x += std::exp(v) * std::log1p(std::fabs(v));
    }
  }
  return x;
}

std::atomic<std::uint64_t> g_probe_ns{0};
std::atomic<std::uint64_t> g_handler_ns{0};
std::atomic<std::uint64_t> g_probes{0};

void on_sigprof(int) {
  const int saved_errno = errno;
  const double c0 = clock_s(CLOCK_THREAD_CPUTIME_ID);
  const double us = probe_us();
  const double handler_s = clock_s(CLOCK_THREAD_CPUTIME_ID) - c0;
  g_probe_ns.fetch_add(static_cast<std::uint64_t>(us * 1e3), std::memory_order_relaxed);
  g_handler_ns.fetch_add(static_cast<std::uint64_t>(handler_s * 1e9), std::memory_order_relaxed);
  g_probes.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

void set_prof_timer(int ms) {
  itimerval it{};
  it.it_interval.tv_usec = ms * 1000;
  it.it_value.tv_usec = ms * 1000;
  ::setitimer(ITIMER_PROF, &it, nullptr);
}

}  // namespace

double probe_us() {
  // One untimed run first brings the kernel's code and data into the
  // caches, so the timed run measures the core, not whatever ran before.
  double x = probe_kernel();
  const double c0 = clock_s(CLOCK_THREAD_CPUTIME_ID);
  x += probe_kernel();
  const double us = (clock_s(CLOCK_THREAD_CPUTIME_ID) - c0) * 1e6;
  g_probe_sink = x;
  return us;
}

SpeedSampler::SpeedSampler() {
  struct sigaction sa {};
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGPROF, &sa, nullptr);
  set_prof_timer(kSampleMs);
}

SpeedSampler::~SpeedSampler() {
  set_prof_timer(0);
  ::signal(SIGPROF, SIG_IGN);
}

SpeedSampler::Totals SpeedSampler::totals() {
  Totals t;
  t.probe_s = static_cast<double>(g_probe_ns.load(std::memory_order_relaxed)) * 1e-9;
  t.handler_s = static_cast<double>(g_handler_ns.load(std::memory_order_relaxed)) * 1e-9;
  t.probes = g_probes.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

double Rng::log_uniform(double lo, double hi) {
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

int Rng::below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed ^ (tag * 0x9e3779b97f4a7c15ull));
  return r.next();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Digest::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 1099511628211ull;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void Result::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

std::string full_digits(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Result::fail(const std::string& why) {
  // Log the first few; a systematic failure would otherwise flood stderr.
  if (check_failures++ < 20) std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
}

double peak_rss_mb_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double vm_hwm_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::vector<int> child_pids(int pid) {
  std::vector<int> out;
  std::ifstream in("/proc/" + std::to_string(pid) + "/task/" + std::to_string(pid) +
                   "/children");
  int child = 0;
  while (in >> child) out.push_back(child);
  return out;
}

double library_setup_s(const Options& opt, int reps) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    // Everything the child needs is built before the fork: between fork
    // and exec only async-signal-safe calls are allowed.
    const std::string seed = std::to_string(opt.seed);
    const char* argv[] = {"/proc/self/exe", "--setup-probe", opt.workload.c_str(),
                          "--seed", seed.c_str(), nullptr};
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(argv[0], const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(fds[1]);
    std::string text;
    char buf[256];
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof buf)) > 0) text.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty())
      throw std::runtime_error("set-up probe failed");
    samples.push_back(std::stod(text));
  }
  return median(samples);
}

Telemetry Telemetry::now() {
  Telemetry t;
  const rfmix::obs::TelemetrySnapshot snap = rfmix::obs::snapshot();
  for (const auto& c : snap.counters) t.counters[c.name] = c.value;
  for (const auto& tm : snap.timers) t.timers_s[tm.name] = static_cast<double>(tm.total_ns) * 1e-9;
  return t;
}

Telemetry Telemetry::since(const Telemetry& earlier) const {
  Telemetry d;
  for (const auto& [name, v] : counters) {
    const auto it = earlier.counters.find(name);
    d.counters[name] = v - (it == earlier.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, v] : timers_s) {
    const auto it = earlier.timers_s.find(name);
    d.timers_s[name] = v - (it == earlier.timers_s.end() ? 0.0 : it->second);
  }
  return d;
}

double Telemetry::count(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

double Telemetry::timer_s(const std::string& name) const {
  const auto it = timers_s.find(name);
  return it == timers_s.end() ? 0.0 : it->second;
}

namespace {
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void add_counter_metrics(const Telemetry& d, Result& r) {
  for (const char* name :
       {"spice.newton.iterations", "spice.lu.analyze", "spice.lu.refactor", "spice.lu.fallback",
        "spice.op.gmin_steps", "spice.op.source_steps", "spice.dev.evaluated",
        "spice.dev.bypassed", "spice.tran.steps_attempted", "lptv.lu.analyze",
        "runtime.parallel_for.chunks", "runtime.pool.tasks_stolen"})
    r.add(name, d.count(name), "count");
  const double refactor = d.count("spice.lu.refactor");
  r.add("spice.lu.refactor_ratio", ratio(refactor, refactor + d.count("spice.lu.fallback")),
        "ratio");
  r.add("spice.dev.bypass_ratio",
        ratio(d.count("spice.dev.bypassed"), d.count("spice.dev.evaluated")), "ratio");
  r.add("spice.tran.reject_ratio",
        ratio(d.count("spice.tran.steps_rejected"), d.count("spice.tran.steps_attempted")),
        "ratio");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      // workload-level spans and the tracing overhead
      {"tran_s", "s"},
      {"pss_pac_s", "s"},
      {"lptv_sweep_s", "s"},
      {"array_op_s", "s"},
      {"trace.overhead_pct", "%"},
      // gen_array_op: the 2048-element solve path
      {"gen.render_s", "s"},
      {"spice.parse_s", "s"},
      {"spice.op_s", "s"},
      {"spice.assemble_ms", "ms"},
      {"mathx.csc_ms", "ms"},
      {"mathx.lu_analyze_ms", "ms"},
      {"mathx.lu_refactor_ms", "ms"},
      {"mathx.lu_solve_ms", "ms"},
      {"spice.op.stage_share", "ratio"},
      {"spice.op.residual_a", "A"},
      {"mathx.lu_nnz", "count"},
      {"mathx.solve_exponent", "slope"},
      {"gen.elaborate_exponent", "slope"},
      // solver counters (obs), every workload
      {"spice.newton.iterations", "count"},
      {"spice.lu.analyze", "count"},
      {"spice.lu.refactor", "count"},
      {"spice.lu.fallback", "count"},
      {"spice.lu.refactor_ratio", "ratio"},
      {"spice.op.gmin_steps", "count"},
      {"spice.op.source_steps", "count"},
      {"spice.dev.evaluated", "count"},
      {"spice.dev.bypassed", "count"},
      {"spice.dev.bypass_ratio", "ratio"},
      {"spice.tran.steps_attempted", "count"},
      {"spice.tran.reject_ratio", "ratio"},
      {"lptv.lu.analyze", "count"},
      {"runtime.parallel_for.chunks", "count"},
      {"runtime.pool.tasks_stolen", "count"},
      // paper_mixer: engines of the artifact pass
      {"spice.tran_s", "s"},
      {"spice.assemble_us", "us"},
      {"mathx.lu_refactor_us", "us"},
      {"mathx.lu_solve_us", "us"},
      {"spice.pss_s", "s"},
      {"core.pac_s", "s"},
      {"lptv.matrix.solve_s", "s"},
      {"lptv.matrix.noise_s", "s"},
      {"core.lptv_gain_sweep_s", "s"},
      {"core.lptv_nf_sweep_s", "s"},
      // svc workloads: client-observed tails and per-kind cold latency
      {"svc.requests", "count"},
      {"svc.cold_p50_ms", "ms"},
      {"svc.cold_p95_ms", "ms"},
      {"svc.warm_p50_ms", "ms"},
      {"svc.warm_p99_ms", "ms"},
      {"svc.mixer_metric.cold_p50_ms", "ms"},
      {"svc.npath_zin.cold_p50_ms", "ms"},
      {"svc.gen.cold_p50_ms", "ms"},
      {"svc.op.cold_p50_ms", "ms"},
      {"svc.ac.cold_p50_ms", "ms"},
      // svc: in-process replay of the request path
      {"svc.json_parse_us", "us"},
      {"svc.parse_request_us", "us"},
      {"svc.request_key_us", "us"},
      {"svc.cache_get_us", "us"},
      {"svc.serialize_us", "us"},
      {"svc.transport_us", "us"},
      {"svc.execute_ms.mixer_metric", "ms"},
      {"svc.execute_ms.npath_zin", "ms"},
      {"svc.execute_ms.gen", "ms"},
      {"svc.execute_ms.op", "ms"},
      {"svc.execute_ms.ac", "ms"},
      // svc: daemon and router stats
      {"svc.cache.lookups", "count"},
      {"svc.cache.hit_ratio", "ratio"},
      {"svc.jobs.deduped", "count"},
      {"svc.jobs.failed", "count"},
      {"svc.router.requests", "count"},
      {"svc.router.cache_hit_ratio", "ratio"},
      {"svc.router.replays", "count"},
      {"svc.router.hop_us", "us"},
  };
  return kCatalogue;
}

}  // namespace perfbench
