#include "svc/line_reactor.hpp"

#include <algorithm>
#include <string>

#ifndef _WIN32
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "svc/fault.hpp"
#endif

namespace rfmix::svc {

namespace {

obs::Counter& counter(std::string_view prefix, const char* name) {
  return obs::counter(std::string(prefix) + "." + name);
}

#ifndef _WIN32
bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}
#endif

}  // namespace

LineReactor::LineReactor(std::string_view counter_prefix, std::size_t max_inflight,
                         std::size_t max_output_bytes, std::size_t max_line_bytes)
    : protocol_errors_(counter(counter_prefix, "protocol_errors")),
      max_inflight_(max_inflight),
      max_output_bytes_(max_output_bytes),
      max_line_bytes_(max_line_bytes),
      connections_(counter(counter_prefix, "connections")),
      disconnects_(counter(counter_prefix, "disconnects")),
      responses_(counter(counter_prefix, "responses")),
      backpressure_pauses_(counter(counter_prefix, "backpressure_pauses")),
      bytes_in_(counter(counter_prefix, "bytes_in")),
      bytes_out_(counter(counter_prefix, "bytes_out")),
      peer_resets_(counter(counter_prefix, "peer_resets")) {
#ifndef _WIN32
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    wake_r_ = fds[0];
    wake_w_ = fds[1];
    set_nonblocking(wake_r_);
    set_nonblocking(wake_w_);
  }
#endif
}

#ifndef _WIN32

namespace {

constexpr int kBacklog = 64;
constexpr std::chrono::milliseconds kDrainTimeout{30000};  // graceful-shutdown cap

bool unix_address(const std::string& path, sockaddr_un* addr) {
  *addr = sockaddr_un{};
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) return false;
  std::strncpy(addr->sun_path, path.c_str(), sizeof(addr->sun_path) - 1);
  return true;
}

}  // namespace

LineReactor::~LineReactor() {
  for (auto& [gen, conn] : conns_) {
    (void)gen;
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listener_ >= 0) ::close(listener_);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
}

bool LineReactor::claim_socket_path(const std::string& path, std::string* err) {
  sockaddr_un addr;
  if (!unix_address(path, &addr)) {
    if (err != nullptr) *err = "socket path too long";
    return false;
  }
  // Only ever remove a *stale* socket: refuse to clobber a regular file
  // (or anything else) at the path, and refuse to take over a socket another
  // live server is still accepting on.
  struct stat st {};
  if (::lstat(path.c_str(), &st) != 0) return true;
  if (!S_ISSOCK(st.st_mode)) {
    if (err != nullptr) *err = path + " exists and is not a socket; refusing to remove it";
    return false;
  }
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    const bool live =
        ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(probe);
    if (live) {
      if (err != nullptr) *err = "another server is listening on " + path;
      return false;
    }
  }
  ::unlink(path.c_str());
  return true;
}

bool LineReactor::listen_unix(const std::string& path, std::string* err) {
  if (!claim_socket_path(path, err)) return false;
  sockaddr_un addr;
  unix_address(path, &addr);  // the claim checked the length
  std::string why;
  if (wake_r_ < 0 || wake_w_ < 0) {
    why = "wake pipe unavailable";
  } else if ((listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0)) < 0) {
    why = std::string("socket: ") + std::strerror(errno);
  } else if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
             ::listen(listener_, kBacklog) != 0 || !set_nonblocking(listener_)) {
    why = std::string("bind/listen: ") + std::strerror(errno);
    ::close(listener_);
    listener_ = -1;
  } else {
    return true;
  }
  if (err != nullptr) *err = path + ": " + why;
  return false;
}

int LineReactor::connect_unix(const std::string& path) {
  sockaddr_un addr;
  if (!unix_address(path, &addr)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // Unix-domain connects never return EINPROGRESS: they complete, or fail
  // (EAGAIN when the accept queue is full).
  if (set_nonblocking(fd) &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
    return fd;
  ::close(fd);
  return -1;
}

void LineReactor::request_shutdown() {
  // Async-signal-safe: one atomic store plus one write(2). Everything
  // else happens on the loop thread once the wake byte lands.
  shutdown_requested_.store(true, std::memory_order_release);
  wake();
}

void LineReactor::wake() {
  const char b = 'w';
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] const ssize_t n = ::write(wake_w_, &b, 1);
}

int LineReactor::poll_timeout_ms() const {
  Clock::time_point nearest = next_deadline();
  if (draining_) nearest = std::min(nearest, drain_deadline_);
  if (nearest == Clock::time_point::max()) return -1;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(nearest - Clock::now())
          .count();
  if (ms <= 0) return 0;
  return static_cast<int>(std::min<long long>(ms + 1, 60000));
}

void LineReactor::run() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> gens;  // client generation per client entry
  while (true) {
    if (shutdown_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_deadline_ = Clock::now() + kDrainTimeout;
      if (listener_ >= 0) {
        ::close(listener_);
        listener_ = -1;
      }
      // Stop consuming input; already-dispatched work drains, buffered
      // bytes that never became a dispatched request are dropped.
      for (auto& [gen, conn] : conns_) {
        (void)gen;
        conn.discard_input = true;
      }
    }

    tick();
    for (auto& [gen, conn] : conns_) {
      (void)gen;
      dispatch(conn);
    }
    reap_connections();
    if (draining_ && conns_.empty()) break;

    fds.clear();
    gens.clear();
    fds.push_back(pollfd{wake_r_, POLLIN, 0});
    const bool listening = listener_ >= 0;
    if (listening) fds.push_back(pollfd{listener_, POLLIN, 0});
    const std::size_t extra = fds.size();
    poll_extra(fds);
    const std::size_t clients = fds.size();
    for (auto& [gen, conn] : conns_) {
      short events = 0;
      if (!conn.read_closed && !conn.discard_input && !conn.paused) events |= POLLIN;
      if (conn.unsent() > 0) events |= POLLOUT;
      if (events == 0) continue;  // progress arrives via the wake pipe
      fds.push_back(pollfd{conn.fd, events, 0});
      gens.push_back(gen);
    }

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          poll_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; drain state dies with the loop
    }

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wake_r_, buf, sizeof buf) > 0) {
      }
    }
    if (listening && (fds[1].revents & POLLIN) != 0) accept_clients();
    on_polled(fds.data() + extra);
    for (std::size_t i = clients; i < fds.size(); ++i) {
      const auto it = conns_.find(gens[i - clients]);
      if (it == conns_.end() || it->second.dead) continue;
      Conn& conn = it->second;
      const short re = fds[i].revents;
      if ((re & (POLLERR | POLLNVAL)) != 0) {
        conn.dead = true;
        continue;
      }
      if ((re & POLLOUT) != 0) write_to(conn);
      if ((re & (POLLIN | POLLHUP)) != 0 && !conn.read_closed && !conn.dead) {
        const Io got = recv_some(conn);
        if (got == Io::kEof) conn.read_closed = true;  // buffered lines still drain
        if (got == Io::kFailed) conn.dead = true;
      }
    }
  }
  on_stopped();
}

void LineReactor::accept_clients() {
  while (true) {
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: poll again
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    Conn conn;
    conn.fd = fd;
    conn.gen = next_gen_++;
    conns_.emplace(conn.gen, std::move(conn));
    connections_.increment();
  }
}

LineReactor::Io LineReactor::recv_some(Framed& io) {
  char buf[65536];
  const ssize_t n = ::recv(io.fd, buf, sizeof buf, 0);
  if (n > 0) {
    bytes_in_.add(static_cast<std::uint64_t>(n));
    io.rbuf.append(buf, static_cast<std::size_t>(n));
    return Io::kOk;
  }
  if (n == 0) return Io::kEof;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return Io::kOk;
  return Io::kFailed;
}

LineReactor::Io LineReactor::flush(Framed& io) {
  while (io.wpos < io.wbuf.size()) {
    fault::maybe_stall();
    const std::size_t want = fault::clamp_write(io.unsent());
    const ssize_t n = ::send(io.fd, io.wbuf.data() + io.wpos, want, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_.add(static_cast<std::uint64_t>(n));
      io.wpos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EPIPE || errno == ECONNRESET) ? Io::kReset : Io::kFailed;
  }
  if (io.wpos == io.wbuf.size()) {
    io.wbuf.clear();
    io.wpos = 0;
  } else if (io.wpos > (1u << 16)) {
    io.wbuf.erase(0, io.wpos);
    io.wpos = 0;
  }
  return Io::kOk;
}

void LineReactor::write_to(Conn& conn) {
  const Io done = flush(conn);
  if (done != Io::kOk) {
    // The peer hung up with responses still queued. Strictly that peer's
    // problem — reap this connection, serve the rest.
    if (done == Io::kReset) peer_resets_.increment();
    conn.dead = true;
    return;
  }
  if (conn.drop_after_flush && conn.unsent() == 0) conn.dead = true;
}

void LineReactor::enqueue_response(Conn& conn, const Response& r) {
  fault::on_response_write();
  conn.wbuf += r.line;
  conn.wbuf.push_back('\n');
  if (fault::should_drop_conn()) conn.drop_after_flush = true;
  responses_.increment();
  if (!conn.dead) write_to(conn);
}

void LineReactor::dispatch(Conn& conn) {
  if (conn.discard_input) return;
  std::string line;
  while (!conn.dead) {
    if (conn.inflight >= max_inflight_ || conn.unsent() >= max_output_bytes_) {
      if (!conn.paused) backpressure_pauses_.increment();
      conn.paused = true;
      return;
    }
    conn.paused = false;
    const Framed::Line got = conn.next_line(&line, max_line_bytes_);
    if (got == Framed::Line::kNone) return;
    if (got == Framed::Line::kOversized) {
      // A line this long cannot be resynchronized; answer and hang up.
      enqueue_response(conn, make_error_response("null", ErrorCode::kParseError,
                                                 "request line exceeds size limit"));
      protocol_errors_.increment();
      conn.read_closed = true;
      return;
    }
    on_line(conn, line);
  }
}

void LineReactor::reap_connections() {
  const bool past_drain = draining_ && Clock::now() >= drain_deadline_;
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& conn = it->second;
    const bool no_more_input =
        conn.discard_input || (conn.read_closed && conn.rpos == conn.rbuf.size());
    const bool finished = no_more_input && conn.inflight == 0 && conn.unsent() == 0;
    if (conn.dead || finished || past_drain) {
      on_closed(conn);
      ::close(conn.fd);
      disconnects_.increment();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

LineReactor::Framed::Line LineReactor::Framed::next_line(std::string* line,
                                                          std::size_t max_line_bytes) {
  while (rpos < rbuf.size()) {
    const std::size_t nl = rbuf.find('\n', rpos);
    const std::size_t end = nl == std::string::npos ? rbuf.size() : nl;
    // Terminated or not: whether a line is served must not depend on where
    // the reads split it.
    if (end - rpos > max_line_bytes) {
      rpos = rbuf.size();
      return Line::kOversized;
    }
    // EOF with an unterminated final line: getline parity with the stdin
    // transport — it is the last request.
    if (nl == std::string::npos && !read_closed) break;
    line->assign(rbuf, rpos, end - rpos);
    rpos = nl == std::string::npos ? end : nl + 1;
    if (!line->empty() && line->back() == '\r') line->pop_back();
    if (line->find_first_not_of(" \t") != std::string::npos) return Line::kReady;
  }
  // Compact the consumed prefix so a long-lived stream does not grow its
  // read buffer without bound.
  if (rpos == rbuf.size()) {
    rbuf.clear();
    rpos = 0;
  } else if (rpos > (1u << 16)) {
    rbuf.erase(0, rpos);
    rpos = 0;
  }
  return Line::kNone;
}

#else  // _WIN32

LineReactor::~LineReactor() = default;
bool LineReactor::listen_unix(const std::string&, std::string* err) {
  if (err != nullptr) *err = "unix sockets are not supported on this platform";
  return false;
}
void LineReactor::run() {}
void LineReactor::request_shutdown() {}
void LineReactor::wake() {}
void LineReactor::enqueue_response(Conn&, const Response&) {}

#endif  // _WIN32

}  // namespace rfmix::svc
