// rfmix-router: the fault-tolerant front process of the rfmixd cluster.
//
// The "forward to a worker" policy over the shared line reactor
// (line_reactor.hpp), which owns the client side: listener, framing,
// backpressure, eager flush and drain. One poll(2) loop speaks the v2
// envelope on both sides: clients connect to the router's Unix socket
// exactly as they would to a single rfmixd, and the router maintains one
// NDJSON link to each supervised worker daemon (supervisor.hpp owns the
// processes), framed by the same reactor code. Analysis requests
// are admitted through parse_request, keyed by their content hash, and
// rendezvous-hashed (highest-random-weight over the live workers) so a
// key always lands on the same worker while that worker lives — each
// worker's LRU cache stays disjoint and maximally warm — and migrates
// minimally when the live set changes.
//
// Fault tolerance, per request:
//  * every dispatched request sits in an inflight table keyed by a router
//    ticket (the id forwarded to the worker; the client's id is restored
//    on the way back, so routing is invisible in the response bytes);
//  * a worker death (connection EOF, SIGCHLD) replays that worker's
//    inflight tickets to the surviving workers — safe to do blindly
//    because results are content-addressed: re-executing the same key is
//    idempotent down to the payload bytes;
//  * worker responses feed a read-through cache tier in the router, so
//    repeated keys are answered without touching a worker at all;
//  * when no worker is live but the supervisor is bringing one back
//    (scheduled respawn, kill in flight), tickets park for a bounded
//    window and re-dispatch the moment a worker link comes up — a
//    crash-restart blip costs latency, not errors;
//  * when no worker is live and none is coming back (restarts disabled,
//    open circuit breaker past its window) the router answers cached keys
//    from its own tier and everything else with a structured
//    `unavailable` error carrying retry_after_ms — it degrades, it never
//    hangs;
//  * a ping heartbeat on every worker connection turns a hung-but-alive
//    worker (stall fault, livelock) into a kill + restart + replay.
//
// Counters: svc.router.{connections,disconnects,requests,responses,
// cache_hits,replays,unavailable,dropped_responses,protocol_errors,
// backpressure_pauses,worker_disconnects,heartbeat_failures,bytes_in,
// bytes_out,peer_resets}.
// See docs/robustness.md for the supervision tree and replay semantics.
#pragma once

#ifndef _WIN32

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "svc/cache.hpp"
#include "svc/line_reactor.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"
#include "svc/supervisor.hpp"

namespace rfmix::svc {

class RouterLoop : public LineReactor {
 public:
  struct Options {
    std::size_t max_inflight = 256;          // per-client running requests
    std::size_t max_output_bytes = 4 << 20;  // per-client unsent responses
    // One request line at a worker; the router admits kMaxForwardGrowth
    // bytes less, so the line it forwards fits.
    std::size_t max_line_bytes = 8 << 20;
    int max_replays = 4;                     // per ticket, before giving up
    double heartbeat_interval_ms = 500.0;
    double heartbeat_timeout_ms = 2000.0;  // ping unanswered -> kill worker
  };

  struct Stats {
    std::uint64_t requests = 0;      // analysis requests admitted
    std::uint64_t cache_hits = 0;    // answered from the router tier
    std::uint64_t replays = 0;       // tickets re-dispatched after a death
    std::uint64_t unavailable = 0;   // degraded answers
    std::uint64_t worker_disconnects = 0;
    std::uint64_t heartbeat_failures = 0;
  };

  /// `cache` is the router's read-through tier (typically router-private;
  /// sharing a disk dir with workers also works — entries are
  /// content-addressed and torn files are quarantined on read). The
  /// supervisor's workers must already be started; run() connects to them
  /// as their sockets appear.
  RouterLoop(Supervisor& sup, ResultCache& cache, Options opts);
  ~RouterLoop() override;

  /// Async-signal-safe wake (SIGCHLD handler): re-check children now.
  void notify() { wake(); }

  Stats stats() const { return stats_; }

 private:
  /// The router's connection to one worker, connected while fd >= 0
  /// (a Unix-domain connect completes or fails at once). Bytes queued
  /// before the connect flush on it; a link failure replays its tickets.
  struct WorkerLink : Framed {
    Clock::time_point connect_deadline{};
    /// Set when the link (or its worker) failed; cleared by a respawn.
    /// A failed worker is ineligible for routing until it comes back, so
    /// a heartbeat-killed worker cannot win the rendezvous again while
    /// its SIGKILL is still in flight.
    bool failed = false;
    bool hb_outstanding = false;
    Clock::time_point hb_deadline{};
    Clock::time_point hb_next{};
  };

  struct Ticket {
    std::uint64_t client_gen = 0;
    std::string id_json;  // the client's id, restored on the response
    Hash128 key;
    std::string forward_line;  // the client's line with the ticket as id
    int worker = -1;
    int replays = 0;
  };

  // LineReactor hooks.
  void on_line(Conn& conn, const std::string& line) override;
  void tick() override;  // reap, respawn, connect, heartbeat, expire parked
  void poll_extra(std::vector<pollfd>& fds) override;  // worker links
  void on_polled(const pollfd* fds) override;
  Clock::time_point next_deadline() const override;
  void on_closed(Conn& conn) override;

  void do_cancel(Conn& conn, const ParsedRequest& req);
  std::string router_stats_json() const;

  /// Rendezvous winner among live (supervisor-kRunning) workers, or -1.
  int pick_worker(const Hash128& key) const;
  void send_to_worker(int idx, const std::string& line);
  /// Answer the ticket's client (if still connected) and release its
  /// inflight slot.
  void finish_ticket(const Ticket& t, const Response& r);
  /// Dispatch to the rendezvous winner; with no winner, park (a respawn
  /// is pending) or degrade: answer from the router's cache tier when the
  /// key is known, else `unavailable`. Returns true when the ticket is
  /// still in flight afterwards.
  bool route_or_degrade(std::uint64_t ticket_id);
  /// Re-dispatch (or park/degrade) every ticket assigned to a dead worker.
  void reroute_worker(int idx);
  /// True when a currently-unroutable fleet is expected to recover: the
  /// supervisor has a respawn scheduled, or a kill is still in flight.
  bool fleet_may_recover() const;
  /// Answer a ticket from the degraded path (cache tier / unavailable)
  /// and retire it.
  void degrade_ticket(std::map<std::uint64_t, Ticket>::iterator it);
  /// Re-dispatch parked tickets (a worker link just came up).
  void flush_parked();
  /// Degrade parked tickets whose wait expired or whose fleet stopped
  /// being recoverable.
  void expire_parked();
  double retry_after_ms() const;

  void on_worker_spawned(int idx);
  void try_connect(int idx);
  void link_down(int idx, bool and_kill);
  void process_worker_line(int idx, const std::string& line);
  /// Feed the router cache tier from a successful analysis tail.
  void maybe_cache_fill(const Hash128& key, const std::string& tail);
  void worker_io(int idx, short revents);
  void write_worker(int idx);

  Supervisor& sup_;
  ResultCache& cache_;
  Options opts_;
  std::uint64_t next_ticket_ = 1;
  std::vector<WorkerLink> links_;  // index-aligned with sup_.workers()
  std::vector<int> polled_;        // link index per poll_extra entry
  std::map<std::uint64_t, Ticket> tickets_;
  /// Tickets waiting out a fleet blip: (ticket id, give-up time). Entries
  /// whose ticket vanished (cancel, client gone) or was re-dispatched are
  /// skipped lazily.
  std::deque<std::pair<std::uint64_t, Clock::time_point>> parked_;
  Stats stats_;
};

}  // namespace rfmix::svc

#endif  // _WIN32
