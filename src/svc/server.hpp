// rfmixd request handling: newline-delimited JSON in, newline-delimited
// JSON out, protocol v2 (docs/service.md).
//
// One ServerSession wraps a JobScheduler over a ResultCache and a thread
// pool. The session is transport-free: submit_async() is the one request
// path, the callback-completion entry the poll(2) event loop
// (event_loop.hpp) routes through so responses can finish out of order,
// and handle_line() is its blocking wrapper (parse, submit_async, then
// assist the pool until the callback has run) for the stdin path and the
// tests. The binary in rfmixd.cpp is a thin transport shell around these
// two.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "svc/request.hpp"
#include "svc/scheduler.hpp"

namespace rfmix::runtime {
class ThreadPool;
}

namespace rfmix::svc {

/// One response line (no trailing newline) plus the success flag the
/// transports key their accounting on.
struct Response {
  std::string line;
  bool ok = false;
};

/// Sentinel for "no byte offset" in make_error_response.
inline constexpr std::size_t kNoOffset = static_cast<std::size_t>(-1);

/// Serialize a structured `{"code","message"[,"offset"]}` error. Pure —
/// shared by the session, the event loop (timeouts, cancels), and the
/// golden tests.
Response make_error_response(const std::string& id_json, ErrorCode code,
                             std::string_view message, std::size_t offset = kNoOffset);

/// The response prefix through the "ok" flag: `{"v":2,"id":<id>,"ok":b`.
/// Exposed for the router, which splices a worker response's tail
/// (everything after this prefix) onto a head carrying the client's id —
/// so a routed response is byte-identical to talking to the worker
/// directly.
std::string response_head(const std::string& id_json, bool ok);

/// The cluster's graceful-degradation answer: an `unavailable` error
/// carrying `retry_after_ms`, the router's hint for when capacity is
/// expected back (next restart attempt or breaker cooloff expiry).
Response make_unavailable_response(const std::string& id_json, std::string_view message,
                                   double retry_after_ms);

/// Serialize a non-analysis result (ping, stats, cancel). `result_json`
/// must be one compact JSON value.
Response make_result_response(const ParsedRequest& req, std::string_view result_json);

/// Serialize an analysis result with its cache provenance.
Response make_analysis_response(const ParsedRequest& req, bool cached, bool deduped,
                                const Hash128& key, std::string_view payload);
/// The same from the request's id alone (the router's cache tier answers
/// tickets, which keep no ParsedRequest).
Response make_analysis_response(const std::string& id_json, bool cached, bool deduped,
                                const Hash128& key, std::string_view payload);

class ServerSession {
 public:
  ServerSession(ResultCache& cache, runtime::ThreadPool& pool);

  /// Parse one raw line into `req`. Returns std::nullopt on success; on
  /// failure returns the ready-to-send error response (every parse
  /// failure is answerable — the session never gives up on a stream).
  static std::optional<Response> parse_line(const std::string& line, ParsedRequest* req);

  /// Answer a non-analysis request in place (ping, stats, cancel). For
  /// cancel this is the no-op "nothing pending" answer — the event loop
  /// intercepts cancel before calling this when it has in-flight state.
  Response respond_control(const ParsedRequest& req);

  /// Handle one request line start to finish; blocks until the result is
  /// ready. Never throws: every failure becomes a structured error
  /// response.
  Response handle_line(const std::string& line);

  /// Submit an analysis request (is_analysis_kind(req.kind) must hold) and
  /// invoke `done` with the final response exactly once — synchronously on
  /// a cache hit or inline execution, otherwise from a pool worker thread.
  void submit_async(const ParsedRequest& req, std::function<void(Response)> done);

  /// Read request lines from `in` until EOF, writing one response line
  /// each (blank lines are skipped, CRLF tolerated). Flushes after every
  /// response so a pipe client can interleave.
  void serve(std::istream& in, std::ostream& out);

  JobScheduler& scheduler() { return sched_; }

 private:
  JobScheduler sched_;
};

}  // namespace rfmix::svc
