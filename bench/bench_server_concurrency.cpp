// SERVER: throughput of the concurrent rfmixd transport.
//
// Spins a real ServerLoop on a Unix socket in-process and drives it with
// 8 pipelining clients sharing one pool of mixer-gain requests, against
// the serial baseline of the same requests answered one at a time by
// ServerSession::handle_line. A third pass replays everything warm, so
// the protocol overhead (event loop + socket + JSON envelope) is
// measured separately from the physics. Reports wall times, speedup, and
// warm-path requests/second.
#include <chrono>
#include <string>
#include <vector>

#include "obs/cli.hpp"
#include "rf/table.hpp"
#include "runtime/thread_pool.hpp"
#include "svc/cache.hpp"
#include "svc/server.hpp"

#ifndef _WIN32

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "svc/event_loop.hpp"

using namespace rfmix;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Send every line, then read until `expected` responses arrived.
/// Returns the number of "ok":true lines seen.
int drive_client(const std::string& path, const std::vector<std::string>& lines,
                 int expected) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  std::string all;
  for (const std::string& line : lines) all += line + "\n";
  std::size_t off = 0;
  // Interleave sending and receiving: with per-connection backpressure a
  // blind sendall can deadlock against our own unread responses.
  std::string buf;
  int got = 0, ok = 0;
  while (got < expected) {
    pollfd p{fd, POLLIN, 0};
    if (off < all.size()) p.events |= POLLOUT;
    if (::poll(&p, 1, 60000) <= 0) break;
    if ((p.revents & POLLOUT) != 0 && off < all.size()) {
      const ssize_t n = ::send(fd, all.data() + off, all.size() - off, MSG_NOSIGNAL);
      if (n > 0) off += static_cast<std::size_t>(n);
    }
    if ((p.revents & (POLLIN | POLLHUP)) != 0) {
      char chunk[65536];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t pos = 0, nl;
      while ((nl = buf.find('\n', pos)) != std::string::npos) {
        if (buf.compare(pos, nl - pos, "") != 0) {
          ++got;
          if (buf.find("\"ok\":true", pos) < nl) ++ok;
        }
        pos = nl + 1;
      }
      buf.erase(0, pos);
    }
  }
  ::close(fd);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchCli cli(argc, argv, "bench_server_concurrency");
  std::ostream& out = cli.out();
  if (!cli.csv())
    out << "=== SERVER: concurrent rfmixd transport vs serial session ===\n\n";

  constexpr int kClients = 8;
  constexpr int kPerClient = 8;

  // Globally unique AC sweeps (each ladder has a distinct resistor value),
  // so every request is a real solve on the cold pass and a pure cache
  // hit on the warm one.
  std::vector<std::vector<std::string>> lines(kClients);
  std::vector<std::string> flat;
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kPerClient; ++r) {
      const int tag = c * kPerClient + r;
      std::string netlist = "V1 n0 0 DC 0 AC 1\\n";
      const std::string value = std::to_string(1000 + tag);
      for (int k = 0; k < 10; ++k) {
        const std::string a = std::to_string(k), b = std::to_string(k + 1);
        netlist += "R" + b + " n" + a + " n" + b + " " + value + "\\n";
        netlist += "C" + b + " n" + b + " 0 1n\\n";
      }
      netlist += ".end\\n";
      std::string line = "{\"v\":2,\"id\":\"c" + std::to_string(c) + "-" +
                         std::to_string(r) + "\",\"kind\":\"ac\"," +
                         "\"priority\":" + std::to_string(c % 3) +
                         ",\"params\":{\"netlist\":\"" + netlist +
                         "\",\"ac\":{\"f_start_hz\":1e3,\"f_stop_hz\":1e8," +
                         "\"points\":400,\"probe\":\"n10\"}}}";
      lines[c].push_back(line);
      flat.push_back(line);
    }
  }

  // Serial baseline: one session, one request at a time (cold cache).
  double serial_ms = 0.0;
  {
    svc::ResultCache cache(4096);
    svc::ServerSession session(cache, runtime::ThreadPool::current());
    const auto t0 = std::chrono::steady_clock::now();
    int ok = 0;
    for (const std::string& line : flat) ok += session.handle_line(line).ok ? 1 : 0;
    serial_ms = ms_since(t0);
    if (ok != static_cast<int>(flat.size())) {
      out << "serial pass had failures (" << ok << "/" << flat.size() << ")\n";
      return 1;
    }
  }

  // Concurrent transport: same requests, 8 clients over the socket.
  svc::ResultCache cache(4096);
  svc::ServerSession session(cache, runtime::ThreadPool::current());
  svc::ServerLoop loop(session);
  const std::string path =
      "/tmp/rfmix-bench-server-" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  std::string err;
  if (!loop.listen_unix(path, &err)) {
    out << "listen failed: " << err << "\n";
    return 1;
  }
  std::thread loop_thread([&] { loop.run(); });

  const auto run_pass = [&]() -> std::pair<double, int> {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    std::vector<int> oks(kClients, 0);
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back(
          [&, c] { oks[c] = drive_client(path, lines[c], kPerClient); });
    for (auto& t : clients) t.join();
    int ok = 0;
    for (const int n : oks) ok += n;
    return {ms_since(t0), ok};
  };

  const auto [cold_ms, cold_ok] = run_pass();
  const auto [warm_ms, warm_ok] = run_pass();

  loop.request_shutdown();
  loop_thread.join();
  ::unlink(path.c_str());

  const int total = kClients * kPerClient;
  const double speedup = cold_ms > 0.0 ? serial_ms / cold_ms : 0.0;
  const double warm_rps = warm_ms > 0.0 ? 1000.0 * total / warm_ms : 0.0;

  rf::ConsoleTable table({"pass", "requests", "wall (ms)", "ok"});
  table.add_row({"serial", std::to_string(total), rf::ConsoleTable::num(serial_ms, 2),
                 std::to_string(total)});
  table.add_row({"8 clients cold", std::to_string(total),
                 rf::ConsoleTable::num(cold_ms, 2), std::to_string(cold_ok)});
  table.add_row({"8 clients warm", std::to_string(total),
                 rf::ConsoleTable::num(warm_ms, 2), std::to_string(warm_ok)});
  if (cli.csv()) {
    table.print_csv(out);
  } else {
    table.print(out);
    out << "\ncold serial/concurrent ratio " << rf::ConsoleTable::num(speedup, 2)
        << "x on " << runtime::ThreadPool::current().concurrency()
        << " thread(s); warm transport " << rf::ConsoleTable::num(warm_rps, 0)
        << " req/s\n";
  }

  cli.set_config("clients", kClients);
  cli.set_config("requests", total);
  cli.set_config("threads",
                 static_cast<double>(runtime::ThreadPool::current().concurrency()));
  cli.add_metric("serial_ms", serial_ms);
  cli.add_metric("concurrent_cold_ms", cold_ms);
  cli.add_metric("concurrent_warm_ms", warm_ms);
  cli.add_metric("speedup_vs_serial", speedup);
  cli.add_metric("warm_req_per_s", warm_rps);

  if (cold_ok != total || warm_ok != total) {
    out << "concurrent pass dropped responses: cold " << cold_ok << "/" << total
        << ", warm " << warm_ok << "/" << total << "\n";
    cli.finish();
    return 1;
  }
  return cli.finish();
}

#else  // _WIN32

int main(int argc, char** argv) {
  rfmix::obs::BenchCli cli(argc, argv, "bench_server_concurrency");
  cli.out() << "bench_server_concurrency requires Unix sockets\n";
  return cli.finish();
}

#endif  // _WIN32
