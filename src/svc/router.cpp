#include "svc/router.hpp"

#ifndef _WIN32

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "obs/json_writer.hpp"
#include "obs/obs.hpp"

namespace rfmix::svc {

namespace {

namespace json = obs::json;
using Clock = LineReactor::Clock;

constexpr double kConnectTimeoutMs = 5000.0;  // spawn -> connected, else kill
/// retry_after_ms floor for unavailable answers when the supervisor has
/// nothing scheduled (e.g. restarts disabled).
constexpr double kUnavailableRetryFloorMs = 250.0;
/// How long a ticket may wait for a pending respawn when no worker is
/// routable, before degrading to cache-tier / unavailable.
constexpr double kParkTimeoutMs = 5000.0;
/// Worker responses are as long as their payloads; only clients are capped.
constexpr std::size_t kNoLineLimit = std::numeric_limits<std::size_t>::max();

Clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

RouterLoop::RouterLoop(Supervisor& sup, ResultCache& cache, Options opts)
    : LineReactor("svc.router", opts.max_inflight, opts.max_output_bytes,
                  std::max(opts.max_line_bytes, kMaxForwardGrowth) - kMaxForwardGrowth),
      sup_(sup),
      cache_(cache),
      opts_(opts) {
  links_.resize(sup_.workers().size());
  const Clock::time_point deadline = Clock::now() + ms_duration(kConnectTimeoutMs);
  for (WorkerLink& l : links_) l.connect_deadline = deadline;
}

RouterLoop::~RouterLoop() {
  for (WorkerLink& l : links_)
    if (l.fd >= 0) ::close(l.fd);
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

int RouterLoop::pick_worker(const Hash128& key) const {
  // Rendezvous (highest-random-weight) hashing: every (key, worker) pair
  // gets a deterministic score, the live worker with the top score wins.
  // Key affinity while the live set is stable, minimal migration when it
  // changes, and no ring state to maintain.
  int best = -1;
  Hash128 best_score{};
  const auto& workers = sup_.workers();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (workers[i].state != Supervisor::WorkerState::kRunning) continue;
    if (links_[i].failed) continue;  // kill in flight; not routable
    const Hash128 score = hash128(key.hex(), 0x9e3779b9u + static_cast<std::uint64_t>(i));
    if (best < 0 || score.hi > best_score.hi ||
        (score.hi == best_score.hi && score.lo > best_score.lo)) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  return best;
}

double RouterLoop::retry_after_ms() const {
  const Clock::time_point ev = sup_.next_event();
  if (ev == Clock::time_point::max()) return kUnavailableRetryFloorMs;
  const double ms =
      std::chrono::duration<double, std::milli>(ev - Clock::now()).count();
  return std::max(ms, kUnavailableRetryFloorMs);
}

void RouterLoop::send_to_worker(int idx, const std::string& line) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  l.wbuf += line;
  l.wbuf.push_back('\n');
  write_worker(idx);  // an unconnected link keeps the bytes queued
}

void RouterLoop::finish_ticket(const Ticket& t, const Response& r) {
  const auto it = conns_.find(t.client_gen);
  if (it == conns_.end()) {
    RFMIX_OBS_COUNT("svc.router.dropped_responses");
    return;
  }
  if (it->second.inflight > 0) --it->second.inflight;
  enqueue_response(it->second, r);
}

bool RouterLoop::route_or_degrade(std::uint64_t ticket_id) {
  const auto it = tickets_.find(ticket_id);
  if (it == tickets_.end()) return false;
  Ticket& t = it->second;
  const int w = pick_worker(t.key);
  if (w >= 0) {
    t.worker = w;
    send_to_worker(w, t.forward_line);
    return true;
  }
  if (fleet_may_recover()) {
    // Every worker is momentarily down but at least one is coming back
    // (crash-loop respawn, kill in flight). Failing now would turn a
    // restart blip into client-visible errors; park instead and
    // re-dispatch when a link comes up. The deadline bounds the wait.
    t.worker = -1;
    parked_.emplace_back(ticket_id,
                         Clock::now() + ms_duration(kParkTimeoutMs));
    return true;
  }
  degrade_ticket(it);
  return false;
}

bool RouterLoop::fleet_may_recover() const {
  if (sup_.next_event() != Clock::time_point::max()) return true;
  const auto& workers = sup_.workers();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    // Link failed but the process is not yet reaped: the supervisor will
    // observe the death on its next poll and schedule a respawn.
    if (workers[i].state == Supervisor::WorkerState::kRunning &&
        links_[i].failed)
      return true;
  }
  return false;
}

void RouterLoop::degrade_ticket(std::map<std::uint64_t, Ticket>::iterator it) {
  // A key someone computed before still answers from the router's own
  // tier; everything else gets a bounded, structured refusal instead of
  // an unbounded wait.
  Ticket& t = it->second;
  Response r;
  if (std::optional<std::string> payload = cache_.get(t.key)) {
    ++stats_.cache_hits;
    RFMIX_OBS_COUNT("svc.router.cache_hits");
    r = make_analysis_response(t.id_json, /*cached=*/true, /*deduped=*/false, t.key,
                               *payload);
  } else {
    ++stats_.unavailable;
    RFMIX_OBS_COUNT("svc.router.unavailable");
    r = make_unavailable_response(t.id_json, "no live worker for this request",
                                  retry_after_ms());
  }
  finish_ticket(t, r);
  tickets_.erase(it);
}

void RouterLoop::flush_parked() {
  if (parked_.empty()) return;
  std::deque<std::pair<std::uint64_t, Clock::time_point>> waiting;
  waiting.swap(parked_);
  for (const auto& [id, deadline] : waiting) {
    const auto it = tickets_.find(id);
    if (it == tickets_.end() || it->second.worker >= 0) continue;  // stale
    route_or_degrade(id);  // may re-park with a fresh deadline
  }
}

void RouterLoop::expire_parked() {
  if (parked_.empty()) return;
  const Clock::time_point now = Clock::now();
  std::deque<std::pair<std::uint64_t, Clock::time_point>> waiting;
  waiting.swap(parked_);
  for (const auto& [id, deadline] : waiting) {
    const auto it = tickets_.find(id);
    if (it == tickets_.end() || it->second.worker >= 0) continue;  // stale
    if (now >= deadline) {
      degrade_ticket(it);
      continue;
    }
    // A respawned worker is routable the moment it is kRunning — bytes
    // queue on the link and flush on connect — so dispatch eagerly
    // rather than waiting for the connect to complete.
    const int w = pick_worker(it->second.key);
    if (w >= 0) {
      it->second.worker = w;
      send_to_worker(w, it->second.forward_line);
      continue;
    }
    if (fleet_may_recover()) {
      parked_.emplace_back(id, deadline);  // keep the original give-up time
    } else {
      degrade_ticket(it);
    }
  }
}

void RouterLoop::reroute_worker(int idx) {
  std::vector<std::uint64_t> affected;
  for (const auto& [id, t] : tickets_)
    if (t.worker == idx) affected.push_back(id);
  for (const std::uint64_t id : affected) {
    const auto tit = tickets_.find(id);
    if (tit == tickets_.end()) continue;
    Ticket& t = tit->second;
    t.worker = -1;
    ++t.replays;
    if (t.replays > opts_.max_replays) {
      ++stats_.unavailable;
      RFMIX_OBS_COUNT("svc.router.unavailable");
      finish_ticket(t, make_unavailable_response(
                           t.id_json,
                           "request replayed too many times across worker failures",
                           retry_after_ms()));
      tickets_.erase(tit);
      continue;
    }
    ++stats_.replays;
    RFMIX_OBS_COUNT("svc.router.replays");
    route_or_degrade(id);
  }
}

// ---------------------------------------------------------------------------
// Worker link management
// ---------------------------------------------------------------------------

void RouterLoop::link_down(int idx, bool and_kill) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  if (l.fd >= 0) {
    ::close(l.fd);
    ++stats_.worker_disconnects;
    RFMIX_OBS_COUNT("svc.router.worker_disconnects");
  }
  l = WorkerLink{};
  l.failed = true;
  if (and_kill) sup_.kill_worker(idx);
  reroute_worker(idx);
}

void RouterLoop::on_worker_spawned(int idx) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  if (l.fd >= 0) ::close(l.fd);
  l = WorkerLink{};
  l.connect_deadline = Clock::now() + ms_duration(kConnectTimeoutMs);
}

void RouterLoop::try_connect(int idx) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  l.fd = connect_unix(sup_.worker(idx).socket_path);
  if (l.fd >= 0) {
    l.hb_next = Clock::now() + ms_duration(opts_.heartbeat_interval_ms);
    flush_parked();  // a routable worker exists again
    write_worker(idx);
    return;
  }
  // ENOENT / ECONNREFUSED / EAGAIN: the worker has not bound its socket
  // yet (or its accept queue is full). Retry on the next tick until the
  // connect deadline, then give up on this incarnation (kill; the
  // supervisor respawns it).
  if (Clock::now() >= l.connect_deadline) {
    ++stats_.heartbeat_failures;
    RFMIX_OBS_COUNT("svc.router.heartbeat_failures");
    link_down(idx, /*and_kill=*/true);
  }
}

void RouterLoop::tick() {
  for (const int idx : sup_.poll_children()) link_down(idx, /*and_kill=*/false);
  for (const int idx : sup_.spawn_due()) on_worker_spawned(idx);

  const Clock::time_point now = Clock::now();
  const auto& workers = sup_.workers();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    WorkerLink& l = links_[i];
    const int idx = static_cast<int>(i);
    if (workers[i].state != Supervisor::WorkerState::kRunning) continue;
    if (l.failed) continue;
    if (l.fd < 0) {
      try_connect(idx);
      continue;
    }
    if (l.hb_outstanding && now >= l.hb_deadline) {
      // The worker accepted our connection but stopped answering pings:
      // hung, not dead. Make it dead; replay handles the rest.
      ++stats_.heartbeat_failures;
      RFMIX_OBS_COUNT("svc.router.heartbeat_failures");
      link_down(idx, /*and_kill=*/true);
      continue;
    }
    if (!l.hb_outstanding && now >= l.hb_next) {
      l.hb_outstanding = true;
      l.hb_deadline = now + ms_duration(opts_.heartbeat_timeout_ms);
      l.hb_next = now + ms_duration(opts_.heartbeat_interval_ms);
      send_to_worker(idx, "{\"v\":2,\"id\":\"hb\",\"kind\":\"ping\"}");
    }
  }
  expire_parked();
}

void RouterLoop::process_worker_line(int idx, const std::string& line) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  static const std::string kHbPrefix = "{\"v\":2,\"id\":\"hb\",";
  if (line.compare(0, kHbPrefix.size(), kHbPrefix) == 0) {
    l.hb_outstanding = false;
    return;
  }
  // Everything else carries a numeric ticket id the router assigned:
  // {"v":2,"id":<ticket>,"ok":<bool><tail>
  static const std::string kHead = "{\"v\":2,\"id\":";
  static const std::string kOk = ",\"ok\":";
  std::size_t pos = kHead.size();
  std::uint64_t ticket = 0;
  bool any_digit = false;
  if (line.compare(0, kHead.size(), kHead) == 0) {
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
      ticket = ticket * 10 + static_cast<std::uint64_t>(line[pos] - '0');
      ++pos;
      any_digit = true;
    }
  }
  if (!any_digit || line.compare(pos, kOk.size(), kOk) != 0) {
    // A worker speaking something other than our protocol is as broken as
    // a dead one.
    protocol_errors_.increment();
    link_down(idx, /*and_kill=*/true);
    return;
  }
  pos += kOk.size();
  bool ok = false;
  if (line.compare(pos, 4, "true") == 0) {
    ok = true;
    pos += 4;
  } else if (line.compare(pos, 5, "false") == 0) {
    pos += 5;
  } else {
    protocol_errors_.increment();
    link_down(idx, /*and_kill=*/true);
    return;
  }
  const std::string tail = line.substr(pos);

  const auto it = tickets_.find(ticket);
  if (it == tickets_.end()) {
    // Cancelled client-side, or a replay raced the original worker's
    // answer; either way the result is already spoken for.
    RFMIX_OBS_COUNT("svc.router.dropped_responses");
    return;
  }
  const Ticket t = std::move(it->second);
  tickets_.erase(it);

  if (ok) maybe_cache_fill(t.key, tail);
  finish_ticket(t, Response{response_head(t.id_json, ok) + tail, ok});
}

void RouterLoop::maybe_cache_fill(const Hash128& key, const std::string& tail) {
  // Successful analysis tails have the fixed shape
  //   ,"cached":B,"deduped":B,"key":"<32 hex>","result":<payload>}
  // parsed positionally (the payload is client-influenced bytes; searching
  // it for markers would be spoofable). Control results (pong, stats)
  // simply fail the match and are not cached.
  std::size_t pos = 0;
  const auto eat = [&](std::string_view lit) {
    if (tail.compare(pos, lit.size(), lit) != 0) return false;
    pos += lit.size();
    return true;
  };
  if (!eat(",\"cached\":")) return;
  if (!eat("true") && !eat("false")) return;
  if (!eat(",\"deduped\":")) return;
  if (!eat("true") && !eat("false")) return;
  if (!eat(",\"key\":\"")) return;
  if (pos + 32 > tail.size()) return;
  const std::string_view hex(tail.data() + pos, 32);
  pos += 32;
  if (!eat("\",\"result\":")) return;
  if (tail.size() <= pos || tail.back() != '}') return;
  if (hex != key.hex()) return;  // defensive: worker disagreed on the key
  cache_.put(key, tail.substr(pos, tail.size() - pos - 1));
}

void RouterLoop::worker_io(int idx, short revents) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  if (l.fd < 0) return;
  if ((revents & (POLLERR | POLLNVAL)) != 0) {
    link_down(idx, /*and_kill=*/false);
    return;
  }
  if ((revents & POLLOUT) != 0) write_worker(idx);
  if (l.fd < 0) return;  // write failure tore the link down
  if ((revents & (POLLIN | POLLHUP)) != 0) {
    if (recv_some(l) != Io::kOk) {
      // EOF: the worker died (crash, kill -9, crash_after). Replay.
      link_down(idx, /*and_kill=*/false);
      return;
    }
    std::string line;
    while (l.next_line(&line, kNoLineLimit) == Framed::Line::kReady) {
      process_worker_line(idx, line);
      if (l.fd < 0) return;  // went down
    }
  }
}

void RouterLoop::write_worker(int idx) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  if (l.fd < 0) return;
  if (flush(l) != Io::kOk) link_down(idx, /*and_kill=*/false);
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

void RouterLoop::on_line(Conn& conn, const std::string& line) {
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
  if (req.kind == "ping") {
    enqueue_response(conn, make_result_response(req, "{\"pong\":true}"));
    return;
  }
  if (req.kind == "stats") {
    enqueue_response(conn, make_result_response(req, router_stats_json()));
    return;
  }

  Hash128 key;
  try {
    key = request_key(req.request);
  } catch (const std::exception& e) {
    enqueue_response(conn,
                     make_error_response(req.id_json, ErrorCode::kExecFailed, e.what()));
    return;
  } catch (...) {
    enqueue_response(conn, make_error_response(req.id_json, ErrorCode::kExecFailed,
                                               "unknown keying failure"));
    return;
  }
  ++stats_.requests;
  RFMIX_OBS_COUNT("svc.router.requests");

  if (std::optional<std::string> payload = cache_.get(key)) {
    ++stats_.cache_hits;
    RFMIX_OBS_COUNT("svc.router.cache_hits");
    enqueue_response(conn, make_analysis_response(req, /*cached=*/true, /*deduped=*/false,
                                                  key, *payload));
    return;
  }

  const std::uint64_t ticket_id = next_ticket_++;
  Ticket t;
  t.client_gen = conn.gen;
  t.id_json = req.id_json;
  t.key = key;
  t.forward_line = forward_request_line(line, req, std::to_string(ticket_id));
  tickets_.emplace(ticket_id, std::move(t));
  ++conn.inflight;
  route_or_degrade(ticket_id);
}

void RouterLoop::do_cancel(Conn& conn, const ParsedRequest& req) {
  bool found = false;
  for (auto it = tickets_.begin(); it != tickets_.end();) {
    Ticket& t = it->second;
    if (t.client_gen == conn.gen && t.id_json == req.cancel_target) {
      enqueue_response(conn, make_error_response(t.id_json, ErrorCode::kCancelled,
                                                 "request cancelled by client"));
      if (conn.inflight > 0) --conn.inflight;
      it = tickets_.erase(it);
      found = true;
      // The worker still answers the ticket eventually; the unknown-ticket
      // path drops that result on the floor.
    } else {
      ++it;
    }
  }
  enqueue_response(conn, make_result_response(
                             req, std::string("{\"cancelled\":") +
                                      (found ? "true" : "false") +
                                      ",\"target\":" + req.cancel_target + "}"));
}

std::string RouterLoop::router_stats_json() const {
  const ResultCache::Stats cs = cache_.stats();
  std::uint64_t restarts = 0;
  for (const Supervisor::Worker& w : sup_.workers())
    restarts += w.spawn_count > 0 ? w.spawn_count - 1 : 0;
  std::string out = "{\"router\":{";
  out += "\"workers\":" + json::number(std::uint64_t(sup_.workers().size()));
  out += ",\"alive\":" + json::number(std::uint64_t(sup_.alive_count()));
  out += ",\"inflight\":" + json::number(std::uint64_t(tickets_.size()));
  out += ",\"requests\":" + json::number(stats_.requests);
  out += ",\"cache_hits\":" + json::number(stats_.cache_hits);
  out += ",\"replays\":" + json::number(stats_.replays);
  out += ",\"unavailable\":" + json::number(stats_.unavailable);
  out += ",\"worker_restarts\":" + json::number(restarts);
  out += ",\"heartbeat_failures\":" + json::number(stats_.heartbeat_failures);
  out += "},\"cache\":{";
  out += "\"hits\":" + json::number(cs.hits);
  out += ",\"misses\":" + json::number(cs.misses);
  out += ",\"entries\":" + json::number(std::uint64_t(cache_.size()));
  out += "}}";
  return out;
}

void RouterLoop::on_closed(Conn& conn) {
  if (conn.inflight == 0) return;
  // Dying with tickets outstanding: orphan them now so workers' eventual
  // answers are dropped instead of replayed pointlessly.
  for (auto it = tickets_.begin(); it != tickets_.end();) {
    if (it->second.client_gen == conn.gen) {
      it = tickets_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Loop hooks
// ---------------------------------------------------------------------------

Clock::time_point RouterLoop::next_deadline() const {
  Clock::time_point nearest = sup_.next_event();
  if (!parked_.empty()) nearest = std::min(nearest, parked_.front().second);
  const Clock::time_point now = Clock::now();
  const auto& workers = sup_.workers();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const WorkerLink& l = links_[i];
    if (workers[i].state != Supervisor::WorkerState::kRunning) continue;
    if (l.failed || l.fd < 0) {
      // A failed link's worker awaits waitpid: the supervisor cannot
      // timestamp the reap, and without the binary's SIGCHLD hook nothing
      // else wakes the loop — poll soon so the respawn (and any parked
      // tickets) are not stuck behind a long idle sleep. An unconnected
      // link retries its connect just as soon.
      nearest = std::min(nearest, now + ms_duration(10.0));
    } else {
      nearest = std::min(nearest, l.hb_outstanding ? l.hb_deadline : l.hb_next);
    }
  }
  return nearest;
}

void RouterLoop::poll_extra(std::vector<pollfd>& fds) {
  polled_.clear();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const WorkerLink& l = links_[i];
    if (l.fd < 0) continue;
    const short events = l.unsent() > 0 ? POLLIN | POLLOUT : POLLIN;
    fds.push_back(pollfd{l.fd, events, 0});
    polled_.push_back(static_cast<int>(i));
  }
}

void RouterLoop::on_polled(const pollfd* fds) {
  for (std::size_t i = 0; i < polled_.size(); ++i)
    if (fds[i].revents != 0) worker_io(polled_[i], fds[i].revents);
}

}  // namespace rfmix::svc

#endif  // _WIN32
