// rfmix-router: fault-tolerant front process for a cluster of rfmixd
// workers.
//
// Clients connect to the router's Unix socket and speak the exact
// protocol rfmixd speaks (docs/service.md); the router forks N rfmixd
// workers (each on a private socket under --worker-dir), routes every
// analysis request to a worker by content-hash affinity, replays requests
// whose worker died, restarts crashed workers with backoff and a circuit
// breaker, and degrades to its own cache tier / structured `unavailable`
// errors when no worker is live. See docs/robustness.md.
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "svc/cache.hpp"
#include "svc/fault.hpp"
#include "svc/flags.hpp"
#include "svc/router.hpp"
#include "svc/supervisor.hpp"

#ifndef _WIN32
#include <csignal>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace {

void print_usage(std::ostream& os) {
  os << "usage: rfmix-router --socket PATH [options]\n"
        "\n"
        "Serve rfmix requests through a supervised cluster of rfmixd\n"
        "workers: key-affine routing, transparent replay on worker death,\n"
        "restart with backoff + circuit breaker, graceful degradation.\n"
        "\n"
        "options:\n"
        "  --socket PATH      client-facing Unix socket (required)\n"
        "  --workers N        worker processes to supervise (default 2)\n"
        "  --worker-bin PATH  rfmixd binary (default: next to this binary)\n"
        "  --worker-dir DIR   directory for worker sockets\n"
        "                     (default: <socket>.workers, created 0700)\n"
        "  --cache-dir DIR    disk cache for router AND workers\n"
        "                     (default: $RFMIX_CACHE_DIR; safe to share —\n"
        "                     entries are content-addressed)\n"
        "  --max-entries N    router in-memory LRU capacity (default 4096)\n"
        "  --no-restart       treat any worker death as permanent\n"
        "  --help             show this help\n"
        "\n"
        "RFMIX_FAULT=crash_after:N|stall_ms:M|torn_write|drop_conn injects\n"
        "deterministic faults into this process; export it in a worker's\n"
        "environment to fault the workers instead (docs/robustness.md).\n";
}

#ifndef _WIN32
rfmix::svc::RouterLoop* g_loop = nullptr;

extern "C" void handle_shutdown_signal(int) {
  if (g_loop != nullptr) g_loop->request_shutdown();
}

extern "C" void handle_sigchld(int) {
  // Just a wake: the loop reaps via waitpid(WNOHANG) on its own thread.
  if (g_loop != nullptr) g_loop->notify();
}

std::string sibling_rfmixd(const char* argv0) {
  std::string self = argv0;
  const std::size_t slash = self.rfind('/');
  return slash == std::string::npos ? std::string("rfmixd")
                                    : self.substr(0, slash + 1) + "rfmixd";
}
#endif

}  // namespace

int main(int argc, char** argv) {
#ifdef _WIN32
  (void)argc;
  (void)argv;
  std::cerr << "rfmix-router: not supported on this platform\n";
  return 1;
#else
  std::string socket_path;
  std::string worker_dir;
  rfmix::svc::Supervisor::Options sup_opts;
  sup_opts.worker_bin = sibling_rfmixd(argv[0]);
  std::string cache_dir;
  if (const char* env = std::getenv("RFMIX_CACHE_DIR")) cache_dir = env;
  std::size_t max_entries = 4096;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "rfmix-router: " << arg << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--socket") {
      socket_path = value();
    } else if (arg == "--workers") {
      sup_opts.workers = rfmix::svc::parse_number_or_exit("rfmix-router", arg, value(), 1, 256);
    } else if (arg == "--worker-bin") {
      sup_opts.worker_bin = value();
    } else if (arg == "--worker-dir") {
      worker_dir = value();
    } else if (arg == "--cache-dir") {
      cache_dir = value();
    } else if (arg == "--max-entries") {
      max_entries = rfmix::svc::parse_number_or_exit("rfmix-router", arg, value(), std::size_t{1});
    } else if (arg == "--no-restart") {
      sup_opts.restart = false;
    } else {
      std::cerr << "rfmix-router: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::cerr << "rfmix-router: --socket is required\n";
    print_usage(std::cerr);
    return 2;
  }

  try {
    rfmix::svc::fault::init_from_env();
  } catch (const std::exception& e) {
    std::cerr << "rfmix-router: bad RFMIX_FAULT: " << e.what() << "\n";
    return 2;
  }

  if (worker_dir.empty()) worker_dir = socket_path + ".workers";
  if (::mkdir(worker_dir.c_str(), 0700) != 0 && errno != EEXIST) {
    std::cerr << "rfmix-router: mkdir " << worker_dir << ": "
              << std::strerror(errno) << "\n";
    return 1;
  }
  sup_opts.socket_dir = worker_dir;
  if (!cache_dir.empty()) {
    sup_opts.worker_args.push_back("--cache-dir");
    sup_opts.worker_args.push_back(cache_dir);
  }

  // Claim the client socket before spawning workers: their sockets live
  // next to it, so a router started on a live server's path stops here.
  std::string err;
  if (!rfmix::svc::LineReactor::claim_socket_path(socket_path, &err)) {
    std::cerr << "rfmix-router: " << err << "\n";
    return 1;
  }

  // Writes race worker crashes and client disconnects by design; EPIPE is
  // a per-connection event, never process death.
  std::signal(SIGPIPE, SIG_IGN);

  rfmix::svc::Supervisor sup(sup_opts);
  if (!sup.start(&err)) {
    std::cerr << "rfmix-router: starting workers: " << err << "\n";
    return 1;
  }

  rfmix::svc::ResultCache cache(max_entries, cache_dir);
  rfmix::svc::RouterLoop loop(sup, cache, {});
  if (!loop.listen_unix(socket_path, &err)) {
    std::cerr << "rfmix-router: " << err << "\n";
    sup.shutdown();
    return 1;
  }

  g_loop = &loop;
  struct sigaction sa {};
  sa.sa_handler = handle_shutdown_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  struct sigaction chld {};
  chld.sa_handler = handle_sigchld;
  ::sigemptyset(&chld.sa_mask);
  chld.sa_flags = SA_NOCLDSTOP;
  ::sigaction(SIGCHLD, &chld, nullptr);

  std::cerr << "rfmix-router: listening on " << socket_path << " ("
            << sup_opts.workers << " workers, sockets in " << worker_dir << ")\n";
  loop.run();
  g_loop = nullptr;
  ::unlink(socket_path.c_str());
  sup.shutdown();
  std::cerr << "rfmix-router: drained, shutting down\n";
  return 0;
#endif
}
