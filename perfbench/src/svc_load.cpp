// svc_daemon / svc_cluster: the rfmixd request path under a closed loop.
//
// The load is 4 connections from this one process, each a closed loop
// (send, wait for the reply, send the next) over its own seeded v2-only
// request stream. A fixed share of each stream repeats the connection's own
// earlier keys, so a repeat is never in flight twice and the cache and
// dedup counts depend on the seed alone. Repeats are either near (one of
// the connection's last few keys: a hit at every cache tier) or far (older
// than kFarAfter of its own newer keys: evicted from the router's small
// LRU, so a cluster serves it from the worker tier).
//
// svc_daemon drives a spawned `rfmixd --socket` at RFMIX_THREADS=2;
// svc_cluster drives `rfmix-router` with 2 rfmixd workers at
// RFMIX_THREADS=1 and a router LRU smaller than the stream's key count.
// The traced pass also replays its stream in-process through the public
// svc functions to split a warm request into its stages.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "svc/cache.hpp"
#include "svc/json_parse.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rfmix;

// No measured rfmixd traffic exists to take the mix from. The repeat share
// is the repo's own load bench's (bench_load_replay: every 4th request of
// a connection repeats an earlier key); the kinds are equally likely.
// The near/far split and its window sizes are assumptions, chosen so that
// both cache tiers of a cluster serve repeats. README.md lists the metrics
// each of these drives.
enum Kind { kMixerMetric, kNpathZin, kGen, kOp, kAc, kKinds };
const char* const kKindName[kKinds] = {"mixer_metric", "npath_zin", "gen", "op", "ac"};

constexpr int kConnections = 4;        // traced pass; <= nproc of the reference host
constexpr double kRepeatShare = 0.25;  // of all requests
constexpr double kFarShare = 0.3;      // of repeats
constexpr int kNearWindow = 8;         // near repeats draw from the last 8 keys
constexpr int kRouterEntries = 128;    // router LRU, below the distinct-key count
constexpr int kFarAfter = 192;         // own cold keys since a far key's last use
constexpr int kCacheEntries = 1 << 20; // daemon/worker LRU: never evicts in a run
constexpr int kWorkers = 2;
constexpr int kExecPerKind = 5;        // cold requests re-executed in-process
// peak_rss_mb is read when this many requests have completed: the cache
// then holds a seed-determined number of results, whatever the throughput.
constexpr int kRssMark = 4000;

// ---------------------------------------------------------------------------
// Seeded request stream of one connection.
// ---------------------------------------------------------------------------

struct Request {
  Kind kind = kOp;
  bool repeat = false;
  int key = 0;       // index into the stream's key table
  int id = 0;
  std::string line;  // the v2 request, no newline
};

class Stream {
 public:
  explicit Stream(std::uint64_t seed) : rng_(seed) {}

  Request next() {
    Request req;
    req.id = ++seq_;
    int key = -1;
    if (!keys_.empty() && rng_.uniform(0.0, 1.0) < kRepeatShare) {
      if (rng_.uniform(0.0, 1.0) < kFarShare) {
        for (int tries = 0; tries < 8 && key < 0; ++tries) {
          const int k = rng_.below(static_cast<int>(keys_.size()));
          if (colds_ - keys_[static_cast<std::size_t>(k)].last_use >= kFarAfter) key = k;
        }
      }
      if (key < 0)
        key = recent_[static_cast<std::size_t>(rng_.below(static_cast<int>(recent_.size())))];
      req.repeat = true;
    } else {
      const Kind kind = static_cast<Kind>(rng_.below(kKinds));
      keys_.push_back({kind, cold_params(kind), 0});
      key = static_cast<int>(keys_.size()) - 1;
      ++colds_;
    }
    Key& k = keys_[static_cast<std::size_t>(key)];
    k.last_use = colds_;
    std::erase(recent_, key);
    recent_.push_back(key);
    if (recent_.size() > static_cast<std::size_t>(kNearWindow)) recent_.erase(recent_.begin());

    req.kind = k.kind;
    req.key = key;
    req.line = "{\"v\":2,\"id\":" + std::to_string(req.id) + ",\"kind\":\"" +
               kKindName[k.kind] + "\",\"params\":" + k.params + "}";
    return req;
  }

 private:
  struct Key {
    Kind kind;
    std::string params;
    int last_use;  // colds_ at the key's last use
  };

  std::string cold_params(Kind kind) {
    switch (kind) {
      case kMixerMetric: {
        const std::string mode = rng_.below(2) == 0 ? "\"active\"" : "\"passive\"";
        switch (rng_.below(3)) {
          case 0:  // Fig. 8: gain at an RF point in 0.5-7 GHz, 5 MHz IF
            return "{\"metric\":\"gain_db\",\"config\":{\"mode\":" + mode +
                   "},\"f_if_hz\":5000000,\"f_rf_hz\":" +
                   full_digits(rng_.uniform(0.5e9, 7e9)) + "}";
          case 1:  // Fig. 9: DSB NF at an IF point in 10 kHz-50 MHz
            return "{\"metric\":\"nf_dsb_db\",\"config\":{\"mode\":" + mode +
                   "},\"f_if_hz\":" + full_digits(rng_.log_uniform(10e3, 50e6)) + "}";
          default:  // Fig. 10: IIP3 over the LO drive level
            return "{\"metric\":\"iip3_dbm\",\"config\":{\"mode\":" + mode +
                   ",\"lo_amplitude\":" + full_digits(rng_.uniform(0.5, 0.7)) + "}}";
        }
      }
      case kNpathZin:  // 4-phase at the smallest valid resolution: a few ms
        return "{\"phases\":4,\"harmonics\":6,\"samples\":28,\"zbb_r\":" +
               full_digits(rng_.uniform(200.0, 2000.0)) + ",\"switch_ron\":" +
               full_digits(rng_.uniform(5.0, 20.0)) +
               ",\"sweep\":{\"f_start_hz\":900000000,\"f_stop_hz\":1100000000,\"points\":5}}";
      case kGen: {
        std::string p = "{\"template\":\"rx_array\",\"elements\":" +
                        std::to_string(2 + rng_.below(7)) +
                        ",\"seed\":" + std::to_string(rng_.below(1000000000)) +
                        ",\"mismatch\":0.05,\"analysis\":";
        if (rng_.below(2) == 0) return p + "\"op\"}";
        return p + "\"ac\",\"ac\":{\"f_start_hz\":1000000,\"f_stop_hz\":1000000000,\"points\":9}}";
      }
      case kOp:
        return "{\"netlist\":\"V1 in 0 DC " + full_digits(rng_.uniform(0.5, 1.5)) +
               "\\nR1 in mid " + full_digits(rng_.uniform(100.0, 10e3)) + "\\nR2 mid out " +
               full_digits(rng_.uniform(100.0, 10e3)) + "\\nR3 out 0 " +
               full_digits(rng_.uniform(100.0, 10e3)) + "\\nD1 out 0\\n\"}";
      default:
        return "{\"netlist\":\"V1 in 0 DC 0 AC 1\\nR1 in mid " +
               full_digits(rng_.uniform(100.0, 10e3)) + "\\nC1 mid 0 " +
               full_digits(rng_.log_uniform(0.1e-12, 10e-12)) + "\\nR2 mid out " +
               full_digits(rng_.uniform(100.0, 10e3)) + "\\nC2 out 0 " +
               full_digits(rng_.log_uniform(0.1e-12, 10e-12)) +
               "\\n\",\"ac\":{\"f_start_hz\":1000,\"f_stop_hz\":1000000000,\"points\":21,"
               "\"probe\":\"out\"}}";
    }
  }

  Rng rng_;
  std::vector<Key> keys_;
  std::vector<int> recent_;  // last kNearWindow distinct keys, oldest first
  int colds_ = 0;
  int seq_ = 0;
};

// ---------------------------------------------------------------------------
// Unix-socket client and daemon processes.
// ---------------------------------------------------------------------------

class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("socket " + path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + std::strerror(errno));
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Send one request line and return the one response line.
  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string resp = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return resp;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Pins the calling thread to one CPU it may run on (the last one) for its
/// lifetime, and restores its affinity afterwards.
class PinnedThread {
 public:
  PinnedThread() {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0)
      throw std::runtime_error("sched_getaffinity failed");
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &saved_)) cpu_ = c;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0)
      throw std::runtime_error("sched_setaffinity failed");
  }
  ~PinnedThread() { ::sched_setaffinity(0, sizeof saved_, &saved_); }
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;
  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

/// A spawned rfmixd, or rfmix-router with its workers. Always reaped and
/// its socket unlinked on destruction, including on the error paths.
class Daemon {
 public:
  /// `cpu` >= 0 pins the daemon, its threads and its workers to that CPU.
  Daemon(bool cluster, const std::string& dir, int threads, int cpu = -1) : cluster_(cluster) {
    static int serial = 0;
    const std::string stem =
        dir + "/" + std::to_string(::getpid()) + "-" + std::to_string(serial++);
    socket_ = stem + ".sock";
    worker_dir_ = stem + ".workers";
    std::vector<std::string> args;
    if (cluster) {
      args = {PERFBENCH_ROUTER, "--socket", socket_, "--workers", std::to_string(kWorkers),
              "--max-entries", std::to_string(kRouterEntries), "--worker-bin", PERFBENCH_RFMIXD,
              "--worker-dir", worker_dir_};
    } else {
      args = {PERFBENCH_RFMIXD, "--socket", socket_, "--max-entries",
              std::to_string(kCacheEntries)};
    }
    // RFMIX_THREADS is pinned explicitly for the daemon and, through the
    // router's environment, for every worker; so is the workers' LRU size.
    // Cache persistence and fault injection are never inherited.
    std::vector<std::string> env = {"RFMIX_THREADS=" + std::to_string(threads),
                                    "RFMIX_CACHE_ENTRIES=" + std::to_string(kCacheEntries)};
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string kv = *e;
      if (kv.rfind("RFMIX_", 0) != 0) env.push_back(kv);
    }
    // Built before the fork: the child may only make async-signal-safe calls.
    std::vector<char*> argv, envp;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (std::string& kv : env) envp.push_back(kv.data());
    envp.push_back(nullptr);
    const std::string log = stem + ".log";
    cpu_set_t pin;
    CPU_ZERO(&pin);
    if (cpu >= 0) CPU_SET(cpu, &pin);
    spawned_ = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int in = ::open("/dev/null", O_RDONLY);
      const int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (in >= 0) ::dup2(in, STDIN_FILENO);
      if (out >= 0) {
        ::dup2(out, STDOUT_FILENO);
        ::dup2(out, STDERR_FILENO);
      }
      if (cpu >= 0) ::sched_setaffinity(0, sizeof pin, &pin);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  std::string worker_socket(int i) const {
    return worker_dir_ + "/worker-" + std::to_string(i) + ".sock";
  }

  /// Wait until a ping is answered (and, for a cluster, every worker is
  /// alive); then note the serving processes: the daemon and its workers.
  void wait_ready() {
    while (seconds_since(spawned_) < 30.0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up");
      }
      try {
        Conn conn(socket_);
        if (conn.call("{\"v\":2,\"id\":0,\"kind\":\"ping\"}").find("\"pong\":true") !=
            std::string::npos) {
          const bool ready =
              !cluster_ || conn.call("{\"v\":2,\"id\":1,\"kind\":\"stats\"}")
                                   .find("\"alive\":" + std::to_string(kWorkers) + ",") !=
                               std::string::npos;
          if (ready) {
            serving_ = {pid_};
            for (const int child : child_pids(pid_)) serving_.push_back(child);
            return;
          }
        }
      } catch (const std::runtime_error&) {
        // not listening yet
      }
      ::usleep(500);
    }
    throw std::runtime_error("daemon not ready after 30 s");
  }

  /// CPU time of the serving processes so far [s], read once none of their
  /// threads is running or waiting for a CPU. Read from outside, a running
  /// thread's CPU clock lags until the kernel next accounts it, so a read
  /// at any other moment would bill part of one request to the next.
  double settled_cpu_s() const {
    for (int tries = 0; tries < 200 && !idle(); ++tries) ::usleep(20);
    double s = 0.0;
    for (const int pid : serving_) {
      const double cpu = process_cpu_s(pid);
      if (cpu < 0.0) throw std::runtime_error("cannot read the daemon's CPU time");
      s += cpu;
    }
    return s;
  }

  /// Peak RSS of the daemon plus its workers [MB].
  double peak_rss_mb() const {
    double mb = vm_hwm_mb(pid_);
    for (const int child : child_pids(pid_)) mb += vm_hwm_mb(child);
    return mb;
  }

  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const auto t0 = Clock::now();
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (seconds_since(t0) > 10.0) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        ::usleep(1000);
      }
      pid_ = -1;
    }
    ::unlink(socket_.c_str());
    for (int i = 0; i < kWorkers; ++i) ::unlink(worker_socket(i).c_str());
    ::rmdir(worker_dir_.c_str());
  }

 private:
  /// No thread of a serving process is running or runnable.
  bool idle() const {
    for (const int pid : serving_) {
      const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
      DIR* dir = ::opendir(task_dir.c_str());
      if (dir == nullptr) return true;  // gone: nothing left to settle
      bool running = false;
      while (const dirent* e = ::readdir(dir)) {
        if (e->d_name[0] == '.') continue;
        std::ifstream stat(task_dir + "/" + e->d_name + "/stat");
        std::string line;
        std::getline(stat, line);
        // The state follows the parenthesised command name.
        const std::size_t paren = line.rfind(')');
        if (paren != std::string::npos && paren + 2 < line.size() && line[paren + 2] == 'R') {
          running = true;
          break;
        }
      }
      ::closedir(dir);
      if (running) return false;
    }
    return true;
  }

  bool cluster_;
  pid_t pid_ = -1;
  std::vector<int> serving_;  // the daemon and its workers, once ready
  std::string socket_;
  std::string worker_dir_;
  Clock::time_point spawned_;
};

// ---------------------------------------------------------------------------
// Closed-loop load.
// ---------------------------------------------------------------------------

struct Sample {
  Kind kind;
  bool repeat;
  double ms;      // client-observed latency
  double cpu_ms;  // serving CPU time on the reference core (metered drives)
};

/// What one connection sent and got back (kept for the in-process replay).
struct ConnLog {
  std::vector<Request> sent;
  std::vector<std::string> responses;
  std::unordered_map<int, std::string> cold_payload;  // key -> result bytes
};

struct Load {
  std::vector<Sample> samples;
  std::vector<ConnLog> logs;
  double wall_s = 0.0;
  double cpu_s = 0.0;   // serving CPU time on the reference core (metered drives)
  double probe_us = 0.0;  // mean probe time (metered drives)
  double rss_mb = 0.0;  // at the kRssMark-th completed request (metered drives)
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t check_failures = 0;
};

/// Check one response: ok, repeats cached with the cold key's exact
/// payload. Returns an error message, or empty.
std::string check_response(const Request& req, const std::string& resp, ConnLog& log) {
  const std::string head = "{\"v\":2,\"id\":" + std::to_string(req.id) + ",\"ok\":true";
  if (resp.rfind(head, 0) != 0) return "not ok: " + resp.substr(0, 200);
  const std::size_t at = resp.find("\"result\":");
  if (at == std::string::npos) return "no result: " + resp.substr(0, 200);
  const bool cached = resp.compare(head.size(), 14, ",\"cached\":true") == 0;
  const std::string payload = resp.substr(at + 9, resp.size() - at - 10);
  if (!req.repeat) {
    log.cold_payload.emplace(req.key, payload);
    return {};
  }
  if (!cached) return std::string("repeat of a ") + kKindName[req.kind] + " key not cached";
  const auto it = log.cold_payload.find(req.key);
  if (it == log.cold_payload.end() || it->second != payload)
    return std::string("repeat payload differs from the cold answer (") + kKindName[req.kind] + ")";
  return {};
}

/// Drive `d` with `connections` closed loops, each over its own stream, for
/// `seconds` or for exactly `per_conn` requests when per_conn > 0.
///
/// A metered drive has one connection, so one request is in flight and the
/// serving CPU time between two replies is that request's. The daemon and
/// this thread share one CPU (see PinnedThread), and a probe run here after
/// each reply measures that core's speed: each request's CPU time is
/// rescaled to the reference core by the probes on either side of it. A
/// metered drive also reads the peak RSS at the kRssMark-th request.
Load drive(const Daemon& d, std::uint64_t stream_seed, int connections, double seconds,
           int per_conn, bool keep_logs, bool metered = false) {
  if (metered && connections != 1) throw std::logic_error("a metered drive has one connection");
  Load load;
  std::vector<Load> parts(static_cast<std::size_t>(connections));
  load.logs.resize(static_cast<std::size_t>(connections));
  const auto start = Clock::now();
  auto loop = [&](int c) {
    Load& part = parts[static_cast<std::size_t>(c)];
    ConnLog& log = load.logs[static_cast<std::size_t>(c)];
    Stream stream(mix_seed(stream_seed, static_cast<std::uint64_t>(c)));
    try {
      Conn conn(d.socket());
      double cpu_s = metered ? d.settled_cpu_s() : 0.0;
      double probe_before_us = metered ? probe_us() : 0.0;
      for (int n = 0; per_conn > 0 ? n < per_conn : seconds_since(start) < seconds; ++n) {
        const Request req = stream.next();
        std::string resp;
        const double ms = 1e3 * timed("svc.request", [&] { resp = conn.call(req.line); });
        ++part.attempted;
        double cpu_ms = 0.0;
        if (metered) {
          const double now_s = d.settled_cpu_s();
          const double probe_after_us = probe_us();
          cpu_ms = 1e3 * on_reference_core(now_s - cpu_s,
                                           0.5 * (probe_before_us + probe_after_us),
                                           kRequestSensitivity);
          cpu_s = now_s;
          probe_before_us = probe_after_us;
          part.cpu_s += 1e-3 * cpu_ms;
          part.probe_us += probe_after_us;
          if (part.attempted == kRssMark) load.rss_mb = d.peak_rss_mb();
        }
        const std::string err = check_response(req, resp, log);
        if (!err.empty()) {
          ++part.failed;
          if (part.check_failures++ < 5)
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", err.c_str());
        }
        part.samples.push_back({req.kind, req.repeat, ms, cpu_ms});
        if (keep_logs) {
          log.sent.push_back(req);
          log.responses.push_back(std::move(resp));
        }
      }
    } catch (const std::exception& e) {
      ++part.attempted;
      ++part.failed;
      ++part.check_failures;
      std::fprintf(stderr, "perfbench: connection %d failed: %s\n", c, e.what());
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < connections; ++c) threads.emplace_back(loop, c);
  loop(0);
  for (std::thread& t : threads) t.join();
  load.wall_s = seconds_since(start);
  for (Load& p : parts) {
    load.samples.insert(load.samples.end(), p.samples.begin(), p.samples.end());
    load.cpu_s += p.cpu_s;
    load.probe_us += p.probe_us / static_cast<double>(std::max<std::int64_t>(1, p.attempted));
    load.attempted += p.attempted;
    load.failed += p.failed;
    load.check_failures += p.check_failures;
  }
  if (!keep_logs) load.logs.clear();
  return load;
}

void merge(const Load& load, Result& r) {
  r.attempted += load.attempted;
  r.failed += load.failed;
  r.check_failures += load.check_failures;
}

std::vector<double> latencies(const Load& load, bool repeat, int kind = -1) {
  std::vector<double> ms;
  for (const Sample& s : load.samples)
    if (s.repeat == repeat && (kind < 0 || s.kind == kind)) ms.push_back(s.ms);
  return ms;
}

std::vector<double> cpu_times(const Load& load, bool repeat, int kind) {
  std::vector<double> ms;
  for (const Sample& s : load.samples)
    if (s.repeat == repeat && s.kind == kind) ms.push_back(s.cpu_ms);
  return ms;
}

/// The serving CPU time of a request of the stream's design mix [ms]: the
/// mean over the (equally likely) kinds of each kind's median. Taken over
/// all requests at once, a median would jump between the kinds' clusters
/// as a seed shifts the kinds' shares by a percent.
double kind_mean_cpu_ms(const Load& load, bool repeat) {
  double sum = 0.0;
  for (int k = 0; k < kKinds; ++k) sum += median(cpu_times(load, repeat, k));
  return sum / static_cast<double>(kKinds);
}

/// `path` (e.g. "result.jobs.deduped") of a JSON response line, as a number.
double json_number(const svc::JsonValue& doc, std::initializer_list<const char*> path) {
  const svc::JsonValue* v = &doc;
  for (const char* key : path) {
    v = v->find(key);
    if (v == nullptr) throw std::runtime_error(std::string("stats lacks ") + key);
  }
  return v->as_number();
}

struct DaemonStats {
  double cache_hits = 0, cache_misses = 0, deduped = 0, failed = 0;
};

DaemonStats daemon_stats(const std::string& socket) {
  Conn conn(socket);
  const svc::JsonValue doc = svc::json_parse(conn.call("{\"v\":2,\"id\":1,\"kind\":\"stats\"}"));
  DaemonStats s;
  s.cache_hits = json_number(doc, {"result", "cache", "hits"});
  s.cache_misses = json_number(doc, {"result", "cache", "misses"});
  s.deduped = json_number(doc, {"result", "jobs", "deduped"});
  s.failed = json_number(doc, {"result", "jobs", "failed"});
  return s;
}

/// Workers' stats summed for a cluster, the daemon's own otherwise.
DaemonStats backend_stats(const Daemon& d, bool cluster) {
  if (!cluster) return daemon_stats(d.socket());
  DaemonStats sum;
  for (int i = 0; i < kWorkers; ++i) {
    const DaemonStats w = daemon_stats(d.worker_socket(i));
    sum.cache_hits += w.cache_hits;
    sum.cache_misses += w.cache_misses;
    sum.deduped += w.deduped;
    sum.failed += w.failed;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// In-process replay of the request path through the public svc functions.
// ---------------------------------------------------------------------------

double us(const char* span, const std::function<void()>& f) { return 1e6 * timed(span, f); }

void replay(const Load& load, Result& r) {
  svc::ResultCache cache(kCacheEntries);
  std::vector<double> parse_us, request_us, key_us, get_us, serialize_us;
  std::vector<std::vector<double>> exec_ms(kKinds);
  for (const ConnLog& log : load.logs) {
    for (const Request& req : log.sent) {
      if (req.repeat) continue;
      const svc::ParsedRequest pr = svc::parse_request(svc::json_parse(req.line));
      const std::string& payload = log.cold_payload.at(req.key);
      cache.put(svc::request_key(pr.request), payload);
      auto& ms = exec_ms[static_cast<std::size_t>(req.kind)];
      if (ms.size() < static_cast<std::size_t>(kExecPerKind)) {
        std::string fresh;
        ms.push_back(1e3 * timed("svc.execute_request",
                                 [&] { fresh = svc::execute_request(pr.request); }));
        if (fresh != payload)
          r.fail(std::string("in-process ") + kKindName[req.kind] + " payload differs from rfmixd");
      }
    }
  }
  for (const ConnLog& log : load.logs) {
    for (std::size_t i = 0; i < log.sent.size(); ++i) {
      const Request& req = log.sent[i];
      if (!req.repeat) continue;
      svc::JsonValue doc;
      svc::ParsedRequest pr;
      svc::Hash128 key;
      std::optional<std::string> hit;
      svc::Response resp;
      parse_us.push_back(us("svc.json_parse", [&] { doc = svc::json_parse(req.line); }));
      request_us.push_back(us("svc.parse_request", [&] { pr = svc::parse_request(doc); }));
      key_us.push_back(us("svc.request_key", [&] { key = svc::request_key(pr.request); }));
      get_us.push_back(us("svc.ResultCache.get", [&] { hit = cache.get(key); }));
      if (!hit) {
        r.fail("replay cache miss on a repeat");
        continue;
      }
      serialize_us.push_back(us("svc.make_analysis_response", [&] {
        resp = svc::make_analysis_response(pr, true, false, key, *hit);
      }));
      if (resp.line != log.responses[i]) r.fail("replayed response differs from rfmixd's");
    }
  }
  r.add("svc.json_parse_us", median(parse_us), "us");
  r.add("svc.parse_request_us", median(request_us), "us");
  r.add("svc.request_key_us", median(key_us), "us");
  r.add("svc.cache_get_us", median(get_us), "us");
  r.add("svc.serialize_us", median(serialize_us), "us");
  for (int k = 0; k < kKinds; ++k)
    r.add(std::string("svc.execute_ms.") + kKindName[k],
          median(exec_ms[static_cast<std::size_t>(k)]), "ms");
}

std::uint64_t stream_seed(const Options& opt, bool cluster) {
  return mix_seed(opt.seed, cluster ? 4 : 3);
}

}  // namespace

Result run_svc(const Options& opt, bool cluster) {
  Result r;
  const int threads = cluster ? 1 : 2;
  const std::string dir = opt.out_dir;
  const std::uint64_t seed = stream_seed(opt, cluster);

  if (!opt.trace) {
    const PinnedThread pinned;
    // setup_s: the serving processes' CPU time from the spawn to ready, on
    // the reference core.
    std::vector<double> setups;
    for (int i = 0; i < kSetupProbes; ++i) {
      const double probe0_us = probe_us();
      Daemon d(cluster, dir, threads, pinned.cpu());
      d.wait_ready();
      const double cpu_s = d.settled_cpu_s();
      setups.push_back(
          on_reference_core(cpu_s, 0.5 * (probe0_us + probe_us()), kSetupSensitivity));
    }
    Daemon d(cluster, dir, threads, pinned.cpu());
    d.wait_ready();
    const Load load = drive(d, seed, 1, opt.seconds, 0, false, true);
    merge(load, r);
    const DaemonStats st = backend_stats(d, cluster);
    if (st.failed != 0) r.fail("daemon reports failed jobs");
    std::fprintf(stderr,
                 "  %lld requests in %.3f s wall, %.3f s serving CPU (reference core), "
                 "probe %.3f us\n",
                 static_cast<long long>(load.attempted), load.wall_s, load.cpu_s, load.probe_us);
    std::fprintf(stderr, "  setup %.3f / %.3f / %.3f ms (min / median / max)\n",
                 1e3 * quantile(setups, 0.0), 1e3 * median(setups), 1e3 * quantile(setups, 1.0));
    for (int k = 0; k < kKinds; ++k)
      std::fprintf(stderr, "  %-12s cold %zu x %.4f ms, warm %zu x %.4f ms (median CPU)\n",
                   kKindName[k], cpu_times(load, false, k).size(),
                   median(cpu_times(load, false, k)), cpu_times(load, true, k).size(),
                   median(cpu_times(load, true, k)));
    // Requests per serving CPU-second at the design mix (kRepeatShare
    // repeats), from the same per-kind medians.
    const double cold_ms = kind_mean_cpu_ms(load, false);
    const double warm_ms = kind_mean_cpu_ms(load, true);
    add_end_to_end(r, median(setups), load.rss_mb > 0.0 ? load.rss_mb : d.peak_rss_mb(),
                   {cold_ms}, {warm_ms}, 1.0,
                   1e-3 * ((1.0 - kRepeatShare) * cold_ms + kRepeatShare * warm_ms));
    return r;
  }

  // Traced: one fixed-length stream over kConnections, first untraced then
  // traced, each on a fresh daemon; then the in-process replay of the
  // traced stream. Latencies here are client-observed wall times.
  // At least 4,800 requests, about 1,200 of them repeats, so warm p99 has
  // ten samples beyond it.
  const int per_conn = std::max(1200, static_cast<int>(120.0 * opt.seconds));
  double untraced_wall = 0.0;
  {
    Daemon d(cluster, dir, threads);
    d.wait_ready();
    const Load load = drive(d, seed, kConnections, 0.0, per_conn, false);
    merge(load, r);
    untraced_wall = load.wall_s;
  }
  obs::trace::enable();
  Daemon d(cluster, dir, threads);
  d.wait_ready();
  const Load load = drive(d, seed, kConnections, 0.0, per_conn, true);
  merge(load, r);
  obs::trace::disable();

  for (const ConnLog& log : load.logs)
    for (const Request& req : log.sent) r.inputs.add(req.line);
  const double warm_p50_ms = median(latencies(load, true));
  r.add("trace.overhead_pct", 100.0 * (load.wall_s - untraced_wall) / untraced_wall, "%");
  r.add("svc.requests", static_cast<double>(load.attempted), "count");
  r.add("svc.cold_p50_ms", median(latencies(load, false)), "ms");
  r.add("svc.cold_p95_ms", quantile(latencies(load, false), 0.95), "ms");
  r.add("svc.warm_p50_ms", warm_p50_ms, "ms");
  r.add("svc.warm_p99_ms", quantile(latencies(load, true), 0.99), "ms");
  for (int k = 0; k < kKinds; ++k)
    r.add(std::string("svc.") + kKindName[k] + ".cold_p50_ms", median(latencies(load, false, k)),
          "ms");

  const DaemonStats st = backend_stats(d, cluster);
  if (st.failed != 0) r.fail("daemon reports failed jobs");
  r.add("svc.cache.lookups", st.cache_hits + st.cache_misses, "count");
  r.add("svc.cache.hit_ratio", st.cache_hits / std::max(1.0, st.cache_hits + st.cache_misses),
        "ratio");
  r.add("svc.jobs.deduped", st.deduped, "count");
  r.add("svc.jobs.failed", st.failed, "count");
  if (cluster) {
    Conn conn(d.socket());
    const svc::JsonValue doc =
        svc::json_parse(conn.call("{\"v\":2,\"id\":1,\"kind\":\"stats\"}"));
    const double requests = json_number(doc, {"result", "router", "requests"});
    r.add("svc.router.requests", requests, "count");
    r.add("svc.router.cache_hit_ratio",
          json_number(doc, {"result", "router", "cache_hits"}) / std::max(1.0, requests),
          "ratio");
    r.add("svc.router.replays", json_number(doc, {"result", "router", "replays"}), "count");
  }
  d.stop();

  obs::trace::enable();
  const Telemetry before = Telemetry::now();
  timed("svc.replay", [&] { replay(load, r); });
  add_counter_metrics(Telemetry::now().since(before), r);
  obs::trace::disable();
  double stages_us = 0.0;
  for (const char* stage : {"svc.json_parse_us", "svc.parse_request_us", "svc.request_key_us",
                            "svc.cache_get_us", "svc.serialize_us"})
    for (const auto& m : r.metrics)
      if (m.first == stage) stages_us += m.second.first;
  r.add("svc.transport_us", warm_p50_ms * 1e3 - stages_us, "us");

  if (cluster) {
    // The router hop: the same stream on a plain svc_daemon-configured rfmixd.
    Daemon plain(false, dir, 2);
    plain.wait_ready();
    const Load direct = drive(plain, seed, kConnections, 0.0, per_conn, false);
    merge(direct, r);
    r.add("svc.router.hop_us", (warm_p50_ms - median(latencies(direct, true))) * 1e3, "us");
  }
  return r;
}

}  // namespace perfbench
