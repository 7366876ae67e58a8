#include "svc/event_loop.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "obs/obs.hpp"

namespace rfmix::svc {

namespace {

void record_turnaround(LineReactor::Clock::time_point start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      LineReactor::Clock::now() - start)
                      .count();
  static obs::Timer& timer = obs::timer("svc.server.turnaround");
  timer.record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0u);
}

}  // namespace

ServerLoop::ServerLoop(ServerSession& session, Options opts)
    : LineReactor("svc.server", opts.max_inflight, opts.max_output_bytes,
                  opts.max_line_bytes),
      session_(session),
      default_timeout_ms_(opts.default_timeout_ms) {}

void ServerLoop::complete(Key key, Response r) {
  {
    std::lock_guard<std::mutex> lk(cq_mu_);
    cq_.push_back(Completion{key, std::move(r)});
  }
  wake();
  outstanding_.fetch_sub(1, std::memory_order_release);
}

void ServerLoop::on_line(Conn& conn, const std::string& line) {
  ParsedRequest req;
  if (std::optional<Response> err = ServerSession::parse_line(line, &req)) {
    protocol_errors_.increment();
    enqueue_response(conn, *err);
    return;
  }
  if (req.kind == "cancel") {
    do_cancel(conn, req);
    return;
  }
  if (!is_analysis_kind(req.kind)) {
    enqueue_response(conn, session_.respond_control(req));
    return;
  }

  const Key key{conn.gen, next_seq_++};
  PendingReq rec;
  rec.id_json = req.id_json;
  rec.start = Clock::now();
  const double timeout_ms = req.timeout_ms > 0.0 ? req.timeout_ms : default_timeout_ms_;
  if (timeout_ms > 0.0) {
    rec.has_deadline = true;
    rec.deadline = rec.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(timeout_ms));
  }
  pending_.emplace(key, std::move(rec));
  ++conn.inflight;
  RFMIX_OBS_COUNT("svc.server.requests");

  outstanding_.fetch_add(1, std::memory_order_relaxed);
  session_.submit_async(req, [this, key](Response r) { complete(key, std::move(r)); });
}

void ServerLoop::do_cancel(Conn& conn, const ParsedRequest& req) {
  bool found = false;
  auto it = pending_.lower_bound(Key{conn.gen, 0});
  while (it != pending_.end() && it->first.first == conn.gen) {
    if (it->second.id_json == req.cancel_target) {
      enqueue_response(conn, make_error_response(it->second.id_json, ErrorCode::kCancelled,
                                                 "request cancelled by client"));
      RFMIX_OBS_COUNT("svc.server.cancelled");
      it = pending_.erase(it);
      --conn.inflight;
      found = true;
    } else {
      ++it;
    }
  }
  enqueue_response(conn, make_result_response(
                             req, std::string("{\"cancelled\":") +
                                      (found ? "true" : "false") +
                                      ",\"target\":" + req.cancel_target + "}"));
}

void ServerLoop::tick() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lk(cq_mu_);
    batch.swap(cq_);
  }
  for (Completion& c : batch) {
    // Gone when timed out, cancelled, or its client went away.
    const auto rec_it = pending_.find(c.key);
    if (rec_it == pending_.end()) {
      RFMIX_OBS_COUNT("svc.server.dropped_responses");
      continue;
    }
    Conn& conn = conns_.at(c.key.first);
    record_turnaround(rec_it->second.start);
    pending_.erase(rec_it);
    --conn.inflight;
    enqueue_response(conn, c.response);
  }

  const Clock::time_point now = Clock::now();
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.has_deadline && it->second.deadline <= now) {
      Conn& conn = conns_.at(it->first.first);
      enqueue_response(conn, make_error_response(it->second.id_json, ErrorCode::kTimeout,
                                                 "request deadline exceeded"));
      RFMIX_OBS_COUNT("svc.server.timeouts");
      it = pending_.erase(it);
      --conn.inflight;
    } else {
      ++it;
    }
  }
}

LineReactor::Clock::time_point ServerLoop::next_deadline() const {
  Clock::time_point nearest = Clock::time_point::max();
  for (const auto& [key, rec] : pending_) {
    (void)key;
    if (rec.has_deadline) nearest = std::min(nearest, rec.deadline);
  }
  return nearest;
}

void ServerLoop::on_closed(Conn& conn) {
  pending_.erase(pending_.lower_bound(Key{conn.gen, 0}),
                 pending_.lower_bound(Key{conn.gen + 1, 0}));
}

void ServerLoop::on_stopped() {
  // Force-dropped connections can leave compute jobs still running; their
  // completions capture `this`, so wait them out before returning control
  // (the results themselves are discarded).
  using namespace std::chrono_literals;
  while (outstanding_.load(std::memory_order_acquire) > 0)
    std::this_thread::sleep_for(200us);
}

}  // namespace rfmix::svc
