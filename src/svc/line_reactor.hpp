// One line-framed poll(2) reactor under rfmixd (ServerLoop,
// event_loop.hpp) and rfmix-router (RouterLoop, router.hpp). It owns
// everything about client connections that does not depend on what a
// request means:
//  * the Unix listener and its stale-socket policy, the self-pipe wake,
//    and the async-signal-safe request_shutdown();
//  * clients keyed by generation, not fd — the kernel reuses fds, and a
//    late answer must never reach a different client on a recycled fd;
//  * line framing: lines span reads and reads carry many lines; CRLF is
//    tolerated, blank lines are skipped, an unterminated final line is
//    served at EOF, and a line over max_line_bytes (terminated or not) is
//    answered with parse_error before the connection hangs up;
//  * writes through the fault:: sites, flushed eagerly when queued (EAGAIN
//    leaves the tail for POLLOUT), so a mid-batch crash destroys at most
//    the response being built;
//  * backpressure: a client with max_inflight requests unanswered or
//    max_output_bytes unsent is not read until it drains;
//  * graceful drain: stop accepting and reading, answer what was
//    dispatched, flush, and return from run() — within kDrainTimeout.
//
// A policy supplies on_line() and a few hooks (per-tick work, extra poll
// descriptors, next deadline, client closed). ServerLoop executes
// locally; RouterLoop forwards to workers over links that reuse Framed,
// recv_some, flush and next_line. The counters <prefix>.{connections,
// disconnects,responses,protocol_errors,backpressure_pauses,bytes_in,
// bytes_out,peer_resets} resolve once per loop under the policy's prefix.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "svc/server.hpp"

struct pollfd;

namespace rfmix::svc {

class LineReactor {
 public:
  using Clock = std::chrono::steady_clock;

  LineReactor(const LineReactor&) = delete;
  LineReactor& operator=(const LineReactor&) = delete;

  /// The stale-socket policy: true when `path` is free — absent, or a
  /// socket file nobody accepts on, which is removed. A non-socket or a
  /// live server's socket at the path is refused with the reason in
  /// `*err`.
  static bool claim_socket_path(const std::string& path, std::string* err);

  /// claim_socket_path, then bind and listen on a Unix-domain socket at
  /// `path`. Returns false with a human-readable reason in `*err`.
  bool listen_unix(const std::string& path, std::string* err);

  /// Serve until request_shutdown() completes a drain. Must be called
  /// after a successful listen_unix, and only once.
  void run();

  /// Begin graceful shutdown. Async-signal-safe and thread-safe: an atomic
  /// flag plus one write(2) to the loop's wake pipe.
  void request_shutdown();

 protected:
  /// The buffered byte stream of one socket: read bytes not yet framed
  /// into lines, queued bytes not yet written.
  struct Framed {
    enum class Line { kNone, kReady, kOversized };

    int fd = -1;
    std::string rbuf;
    std::size_t rpos = 0;  // consumed prefix of rbuf
    std::string wbuf;
    std::size_t wpos = 0;  // written prefix of wbuf
    bool read_closed = false;  // EOF seen; buffered lines still drain

    std::size_t unsent() const { return wbuf.size() - wpos; }
    /// Frame the next non-blank line into `*line` (CR stripped; the
    /// unterminated tail once read_closed). kOversized consumes the rest of
    /// the buffer once a line, or an unterminated run, is longer than
    /// `max_line_bytes` (the '\n' not counted).
    Line next_line(std::string* line, std::size_t max_line_bytes);
  };

  /// One client connection.
  struct Conn : Framed {
    std::uint64_t gen = 0;
    std::size_t inflight = 0;        // dispatched by the policy, unanswered
    bool discard_input = false;      // shutdown: unparsed bytes are dropped
    bool paused = false;             // backpressure: POLLIN disabled
    bool dead = false;               // I/O error: reaped without draining
    bool drop_after_flush = false;   // fault drop_conn / oversized line
  };

  enum class Io { kOk, kEof, kReset, kFailed };

  LineReactor(std::string_view counter_prefix, std::size_t max_inflight,
              std::size_t max_output_bytes, std::size_t max_line_bytes);
  virtual ~LineReactor();

  // --- Policy hooks ----------------------------------------------------
  /// One framed request line from `conn`.
  virtual void on_line(Conn& conn, const std::string& line) = 0;
  /// Work at the top of every loop iteration, before lines are dispatched.
  virtual void tick() {}
  /// Append descriptors of the policy's own to poll; after poll(2),
  /// on_polled sees the same entries, in order, with revents set.
  virtual void poll_extra(std::vector<pollfd>&) {}
  virtual void on_polled(const pollfd*) {}
  /// Earliest time the policy needs the loop awake; max() for none.
  virtual Clock::time_point next_deadline() const { return Clock::time_point::max(); }
  /// A client connection is about to be closed and forgotten.
  virtual void on_closed(Conn&) {}
  /// run() is about to return.
  virtual void on_stopped() {}

  // --- Shared I/O -----------------------------------------------------
  /// Queue one response line and flush it eagerly.
  void enqueue_response(Conn& conn, const Response& r);
  /// Wake the loop from any thread or a signal handler.
  void wake();
  /// One recv(2) into io.rbuf: kOk (bytes or would-block), kEof, kFailed.
  Io recv_some(Framed& io);
  /// Write io.wbuf until done or would-block: kOk, kReset (EPIPE/
  /// ECONNRESET: the peer hung up), kFailed.
  Io flush(Framed& io);
  /// Connect a non-blocking socket to the Unix socket at `path`: the fd,
  /// or -1 when nobody accepts there (yet).
  static int connect_unix(const std::string& path);

  /// Client connections by generation.
  std::map<std::uint64_t, Conn> conns_;
  obs::Counter& protocol_errors_;

 private:
  void accept_clients();
  void dispatch(Conn& conn);
  void write_to(Conn& conn);
  void reap_connections();
  int poll_timeout_ms() const;

  const std::size_t max_inflight_;
  const std::size_t max_output_bytes_;
  const std::size_t max_line_bytes_;
  int listener_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::uint64_t next_gen_ = 1;
  std::atomic<bool> shutdown_requested_{false};
  bool draining_ = false;
  Clock::time_point drain_deadline_{};

  obs::Counter& connections_;
  obs::Counter& disconnects_;
  obs::Counter& responses_;
  obs::Counter& backpressure_pauses_;
  obs::Counter& bytes_in_;
  obs::Counter& bytes_out_;
  obs::Counter& peer_resets_;
};

}  // namespace rfmix::svc
