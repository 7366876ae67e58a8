#include "svc/supervisor.hpp"

#ifndef _WIN32

#include <csignal>
#include <cstring>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "obs/obs.hpp"

extern char** environ;

namespace rfmix::svc {

namespace {

std::chrono::steady_clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

Supervisor::Supervisor(Options opts) : opts_(std::move(opts)) {
  workers_.resize(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    Worker& w = workers_[static_cast<std::size_t>(i)];
    w.index = i;
    w.socket_path = opts_.socket_dir + "/worker-" + std::to_string(i) + ".sock";
    w.backoff_ms = opts_.backoff_initial_ms;
  }
}

Supervisor::~Supervisor() {
  for (Worker& w : workers_) {
    if (w.state == WorkerState::kRunning && w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
    }
    ::unlink(w.socket_path.c_str());
  }
}

bool Supervisor::spawn(Worker& w, std::string* err) {
  // A dead worker leaves its socket file behind; rfmixd itself refuses to
  // take over a *live* socket, so pre-unlinking here is safe and spares the
  // child the connect-probe on its own corpse.
  ::unlink(w.socket_path.c_str());

  std::vector<std::string> args;
  args.push_back(opts_.worker_bin);
  args.push_back("--socket");
  args.push_back(w.socket_path);
  for (const std::string& a : opts_.worker_args) args.push_back(a);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::vector<std::string> env_strings;
  std::vector<char*> envp;
  if (!opts_.worker_env.empty()) {
    for (char** e = environ; *e != nullptr; ++e) env_strings.emplace_back(*e);
    for (const std::string& kv : opts_.worker_env) env_strings.push_back(kv);
    envp.reserve(env_strings.size() + 1);
    for (std::string& s : env_strings) envp.push_back(s.data());
    envp.push_back(nullptr);
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    if (err != nullptr) *err = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // Child. The worker must not inherit the router's signal disposition
    // for the shutdown signals (the router drains; workers get SIGTERM
    // from Supervisor::shutdown explicitly).
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    if (envp.empty()) {
      ::execv(argv[0], argv.data());
    } else {
      ::execve(argv[0], argv.data(), envp.data());
    }
    // exec failed: exit through _exit so no parent state (streams, atexit)
    // runs twice. 127 matches the shell's command-not-found convention.
    ::_exit(127);
  }
  w.pid = pid;
  w.state = WorkerState::kRunning;
  w.spawned_at = Clock::now();
  ++w.spawn_count;
  RFMIX_OBS_COUNT("svc.supervisor.spawns");
  return true;
}

bool Supervisor::start(std::string* err) {
  for (Worker& w : workers_) {
    if (!spawn(w, err)) return false;
  }
  return true;
}

void Supervisor::on_death(Worker& w, int status) {
  w.pid = -1;
  w.last_exit_status = status;
  RFMIX_OBS_COUNT("svc.supervisor.deaths");
  if (!opts_.restart) {
    w.state = WorkerState::kStopped;
    return;
  }
  const Clock::time_point now = Clock::now();
  const double uptime_ms =
      std::chrono::duration<double, std::milli>(now - w.spawned_at).count();
  if (uptime_ms < opts_.fast_failure_ms) {
    ++w.fast_failures;
    w.backoff_ms = std::min(w.backoff_ms * 2.0, opts_.backoff_cap_ms);
  } else {
    // A long-lived worker that finally died is not a crash loop: restart
    // eagerly and forget the history.
    w.fast_failures = 0;
    w.backoff_ms = opts_.backoff_initial_ms;
  }
  if (w.fast_failures >= opts_.breaker_threshold) {
    w.state = WorkerState::kBroken;
    w.breaker_until = now + ms_duration(opts_.breaker_cooloff_ms);
    RFMIX_OBS_COUNT("svc.supervisor.breaker_opens");
    return;
  }
  w.state = WorkerState::kDown;
  w.restart_at = now + ms_duration(w.backoff_ms);
}

std::vector<int> Supervisor::poll_children() {
  std::vector<int> died;
  for (Worker& w : workers_) {
    if (w.state != WorkerState::kRunning || w.pid <= 0) continue;
    int status = 0;
    const pid_t rc = ::waitpid(w.pid, &status, WNOHANG);
    if (rc == w.pid) {
      on_death(w, status);
      died.push_back(w.index);
    } else if (rc < 0 && errno == ECHILD) {
      // Someone reaped it behind our back (should not happen; be safe).
      on_death(w, 0);
      died.push_back(w.index);
    }
  }
  return died;
}

std::vector<int> Supervisor::spawn_due() {
  std::vector<int> spawned;
  const Clock::time_point now = Clock::now();
  for (Worker& w : workers_) {
    if (w.state == WorkerState::kBroken && now >= w.breaker_until) {
      // Half-open: one probe respawn. A fast death re-opens the breaker
      // (fast_failures is still at the threshold), success is recognized
      // by the next slow failure or by never failing again.
      w.fast_failures = opts_.breaker_threshold - 1;
      w.backoff_ms = opts_.backoff_cap_ms;
      w.state = WorkerState::kDown;
      w.restart_at = now;
    }
    if (w.state == WorkerState::kDown && now >= w.restart_at) {
      std::string err;
      if (spawn(w, &err)) {
        spawned.push_back(w.index);
        RFMIX_OBS_COUNT("svc.supervisor.restarts");
      } else {
        // fork failed (resource exhaustion); retry after the current
        // backoff rather than spinning.
        w.restart_at = now + ms_duration(w.backoff_ms);
      }
    }
  }
  return spawned;
}

Supervisor::Clock::time_point Supervisor::next_event() const {
  Clock::time_point nearest = Clock::time_point::max();
  for (const Worker& w : workers_) {
    if (w.state == WorkerState::kDown) nearest = std::min(nearest, w.restart_at);
    if (w.state == WorkerState::kBroken) nearest = std::min(nearest, w.breaker_until);
  }
  return nearest;
}

void Supervisor::kill_worker(int index) {
  Worker& w = workers_[static_cast<std::size_t>(index)];
  if (w.state == WorkerState::kRunning && w.pid > 0) ::kill(w.pid, SIGKILL);
}

int Supervisor::alive_count() const {
  int n = 0;
  for (const Worker& w : workers_)
    if (w.state == WorkerState::kRunning) ++n;
  return n;
}

void Supervisor::shutdown(double grace_ms) {
  for (Worker& w : workers_) {
    if (w.state == WorkerState::kRunning && w.pid > 0) ::kill(w.pid, SIGTERM);
  }
  const Clock::time_point deadline = Clock::now() + ms_duration(grace_ms);
  for (Worker& w : workers_) {
    if (w.pid <= 0 || w.state != WorkerState::kRunning) {
      w.state = WorkerState::kStopped;
      continue;
    }
    int status = 0;
    while (true) {
      const pid_t rc = ::waitpid(w.pid, &status, WNOHANG);
      if (rc == w.pid || (rc < 0 && errno == ECHILD)) break;
      if (Clock::now() >= deadline) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    w.pid = -1;
    w.state = WorkerState::kStopped;
    ::unlink(w.socket_path.c_str());
  }
}

}  // namespace rfmix::svc

#endif  // _WIN32
