// rfmixd: the simulation service daemon.
//
// Speaks the newline-delimited JSON protocol from docs/service.md (the v2
// envelope; any other version is rejected) over stdin/stdout (default)
// or a Unix domain socket (--socket PATH). Socket mode serves
// many clients concurrently through a poll(2) event loop; all requests
// share one ResultCache and one JobScheduler, so repeated and
// concurrent-identical requests are served from cache / single-flight
// execution. SIGINT/SIGTERM trigger a graceful drain: stop accepting,
// finish every dispatched job, flush every response, exit.
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "runtime/thread_pool.hpp"
#include "svc/cache.hpp"
#include "svc/event_loop.hpp"
#include "svc/fault.hpp"
#include "svc/flags.hpp"
#include "svc/server.hpp"

#ifndef _WIN32
#include <csignal>
#include <unistd.h>
#endif

namespace {

void print_usage(std::ostream& os) {
  os << "usage: rfmixd [options]\n"
        "\n"
        "Serve rfmix simulation requests as newline-delimited JSON\n"
        "(one request per line in, one response per line out).\n"
        "\n"
        "options:\n"
        "  --socket PATH      listen on a Unix domain socket instead of stdin/stdout\n"
        "                     (concurrent clients; SIGINT/SIGTERM drain gracefully)\n"
        "  --cache-dir DIR    persist results to DIR (default: $RFMIX_CACHE_DIR)\n"
        "  --max-entries N    in-memory LRU capacity (default: $RFMIX_CACHE_ENTRIES or 4096)\n"
        "  --timeout-ms MS    default per-request deadline, 0 = none (socket mode)\n"
        "  --max-inflight N   per-connection concurrent request cap (default 64)\n"
        "  --max-output-kb N  per-connection unread-response cap before the\n"
        "                     connection stops being read (default 4096)\n"
        "  --help             show this help\n"
        "\n"
        "Request/response schema: docs/service.md\n";
}

#ifndef _WIN32
rfmix::svc::ServerLoop* g_loop = nullptr;

extern "C" void handle_shutdown_signal(int) {
  if (g_loop != nullptr) g_loop->request_shutdown();
}
#endif

}  // namespace

int main(int argc, char** argv) {
  constexpr std::size_t kMaxOutputKb = std::numeric_limits<std::size_t>::max() / 1024;
  std::string socket_path;
  std::string cache_dir;
  if (const char* env = std::getenv("RFMIX_CACHE_DIR")) cache_dir = env;
  using rfmix::svc::parse_number_or_exit;
  std::size_t max_entries = 4096;
  if (const char* env = std::getenv("RFMIX_CACHE_ENTRIES"); env != nullptr && *env != '\0')
    max_entries = parse_number_or_exit("rfmixd", "RFMIX_CACHE_ENTRIES", env, std::size_t{1});
  rfmix::svc::ServerLoop::Options loop_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "rfmixd: " << arg << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--socket") {
      socket_path = value();
    } else if (arg == "--cache-dir") {
      cache_dir = value();
    } else if (arg == "--max-entries") {
      max_entries = parse_number_or_exit("rfmixd", arg, value(), std::size_t{1});
    } else if (arg == "--timeout-ms") {
      loop_opts.default_timeout_ms = parse_number_or_exit("rfmixd", arg, value(), 0.0);
    } else if (arg == "--max-inflight") {
      loop_opts.max_inflight = parse_number_or_exit("rfmixd", arg, value(), std::size_t{1});
    } else if (arg == "--max-output-kb") {
      loop_opts.max_output_bytes =
          parse_number_or_exit("rfmixd", arg, value(), std::size_t{1}, kMaxOutputKb) * 1024;
    } else {
      std::cerr << "rfmixd: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    }
  }

  try {
    rfmix::svc::fault::init_from_env();
  } catch (const std::exception& e) {
    std::cerr << "rfmixd: bad RFMIX_FAULT: " << e.what() << "\n";
    return 2;
  }

#ifndef _WIN32
  // In every mode, not just socket mode: a stdin-mode client that closes
  // its read end mid-response must surface as a write error, not SIGPIPE
  // killing the daemon.
  std::signal(SIGPIPE, SIG_IGN);
#endif

  rfmix::svc::ResultCache cache(max_entries, cache_dir);
  rfmix::svc::ServerSession session(cache, rfmix::runtime::ThreadPool::global());

  if (socket_path.empty()) {
    session.serve(std::cin, std::cout);
    return 0;
  }

#ifndef _WIN32
  rfmix::svc::ServerLoop loop(session, loop_opts);
  std::string err;
  if (!loop.listen_unix(socket_path, &err)) {
    std::cerr << "rfmixd: " << err << "\n";
    return 1;
  }

  g_loop = &loop;
  struct sigaction sa {};
  sa.sa_handler = handle_shutdown_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::cerr << "rfmixd: listening on " << socket_path << "\n";
  loop.run();
  g_loop = nullptr;
  ::unlink(socket_path.c_str());
  std::cerr << "rfmixd: drained, shutting down\n";
  return 0;
#else
  std::cerr << "rfmixd: --socket is not supported on this platform\n";
  return 1;
#endif
}
