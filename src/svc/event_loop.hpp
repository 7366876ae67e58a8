// Concurrent multi-client transport for rfmixd: the "execute locally"
// policy over the shared line reactor (line_reactor.hpp).
//
// The loop never blocks on a simulation: analysis requests go through
// ServerSession::submit_async, pool workers hand finished responses back
// through a mutex-guarded completion queue plus the reactor's wake pipe,
// and the loop routes them by (connection generation, request sequence) —
// so responses complete out of order and clients match them up by the
// echoed id (which is why the envelope makes the echo mandatory).
//
// Per request: a deadline (timeout_ms or the server default) answers
// code "timeout" on expiry and drops the late result; the "cancel" op
// removes a pending request (the target answers code "cancelled", the
// cancel reports whether anything was found); shutdown drains every
// dispatched job before run() returns.
//
// Counters: svc.server.{connections,disconnects,requests,responses,
// protocol_errors,timeouts,cancelled,backpressure_pauses,
// dropped_responses,bytes_in,bytes_out,peer_resets}; timer
// svc.server.turnaround (dispatch -> response queued). See
// docs/service.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "svc/line_reactor.hpp"
#include "svc/server.hpp"

namespace rfmix::svc {

class ServerLoop : public LineReactor {
 public:
  struct Options {
    std::size_t max_inflight = 64;           // per-connection running requests
    std::size_t max_output_bytes = 4 << 20;  // per-connection unsent responses
    std::size_t max_line_bytes = 8 << 20;    // one request line; above: close
    double default_timeout_ms = 0.0;         // applied when a request has none
  };

  explicit ServerLoop(ServerSession& session) : ServerLoop(session, Options{}) {}
  ServerLoop(ServerSession& session, Options opts);

 private:
  /// (connection generation, request sequence).
  using Key = std::pair<std::uint64_t, std::uint64_t>;

  struct PendingReq {
    std::string id_json;
    bool has_deadline = false;
    Clock::time_point deadline{};
    Clock::time_point start{};
  };

  struct Completion {
    Key key;
    Response response;
  };

  void on_line(Conn& conn, const std::string& line) override;
  void tick() override;  // route completions, then expire deadlines
  Clock::time_point next_deadline() const override;
  void on_closed(Conn& conn) override;
  void on_stopped() override;

  void do_cancel(Conn& conn, const ParsedRequest& req);
  /// Thread-safe handoff from completion callbacks (any thread).
  void complete(Key key, Response r);

  ServerSession& session_;
  const double default_timeout_ms_;
  std::uint64_t next_seq_ = 0;
  std::map<Key, PendingReq> pending_;
  // Dispatched-but-unrouted completions; run() waits for zero before
  // returning so no callback can outlive the loop object.
  std::atomic<int> outstanding_{0};

  std::mutex cq_mu_;
  std::vector<Completion> cq_;
};

}  // namespace rfmix::svc
