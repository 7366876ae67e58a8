// End-to-end tests for the fault-tolerant cluster: a real RouterLoop and
// Supervisor in this process, fork/exec'ing real rfmixd workers (the
// RFMIXD_BIN compile definition points at the built binary), exercised by
// real client connections.
//
// The acceptance guarantees pinned here:
//  * kill -9 a worker with >= 32 requests in flight: every request is
//    answered, replayed responses are byte-identical to a serial no-fault
//    session, zero client-visible errors;
//  * all workers down: cached keys still answer from the router tier,
//    uncached requests get a structured `unavailable` with retry_after_ms
//    within a bounded deadline — never a hang;
//  * injected worker faults (crash_after, torn_write, stall_ms via
//    RFMIX_FAULT in the worker environment) degrade service, never
//    correctness.
#include "svc/router.hpp"

#ifndef _WIN32

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "line_client.hpp"
#include "runtime/thread_pool.hpp"
#include "svc/fault.hpp"
#include "svc/json_parse.hpp"
#include "svc/server.hpp"
#include "svc/supervisor.hpp"

namespace rfmix::svc {
namespace {

// Read timeout for every reply this suite waits on.
constexpr int kReadTimeoutMs = 120000;

class RouterTest : public ::testing::Test {
 protected:
  void start(int workers, Supervisor::Options sopts = Supervisor::Options{},
             RouterLoop::Options ropts = RouterLoop::Options{}) {
    static int counter = 0;
    const std::string base = ::testing::TempDir() + "rfmix-router-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(counter++);
    dir_ = base + ".workers";
    path_ = base + ".sock";
    ::mkdir(dir_.c_str(), 0700);
    ::unlink(path_.c_str());

    sopts.worker_bin = RFMIXD_BIN;
    sopts.workers = workers;
    sopts.socket_dir = dir_;
    sup_ = std::make_unique<Supervisor>(sopts);
    std::string err;
    ASSERT_TRUE(sup_->start(&err)) << err;
    // The supervisor belongs to the loop thread once run() starts; read
    // what the tests need before that thread exists.
    for (const Supervisor::Worker& w : sup_->workers()) pids_.push_back(w.pid);
    cache_ = std::make_unique<ResultCache>(1024);
    loop_ = std::make_unique<RouterLoop>(*sup_, *cache_, ropts);
    ASSERT_TRUE(loop_->listen_unix(path_, &err)) << err;
    thread_ = std::thread([this] { loop_->run(); });
  }

  /// Stop the loop thread. Only then may a test read what that thread
  /// owns: the loop's counters and the supervisor's worker table.
  void stop_loop() {
    loop_->request_shutdown();
    if (thread_.joinable()) thread_.join();
  }

  void TearDown() override {
    if (loop_) loop_->request_shutdown();
    if (thread_.joinable()) thread_.join();
    loop_.reset();
    if (sup_) sup_->shutdown(2000.0);
    sup_.reset();
    if (!path_.empty()) ::unlink(path_.c_str());
  }

  std::unique_ptr<Supervisor> sup_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<RouterLoop> loop_;
  std::thread thread_;
  std::string path_;
  std::string dir_;
  std::vector<pid_t> pids_;  // first-spawn worker pids, by index
};

/// An analysis request that keeps a worker busy for a while: a dense AC
/// sweep of an RC ladder, content-unique per `tag`.
std::string slow_request(const std::string& id_json, int tag, int points = 1200) {
  std::string netlist = "V1 n0 0 DC 0 AC 1\\n";
  const std::string value = std::to_string(1000 + tag);
  for (int i = 0; i < 14; ++i) {
    const std::string index = std::to_string(i), next = std::to_string(i + 1);
    const std::string a = "n" + index, b = "n" + next;
    netlist += "R" + index + " " + a + " " + b + " " + value + "\\n";
    netlist += "C" + index + " " + b + " 0 1e-9\\n";
  }
  return R"({"v":2,"id":)" + id_json + R"(,"kind":"ac","params":{"netlist":")" +
         netlist + R"(","ac":{"f_start_hz":1e3,"f_stop_hz":1e9,"points":)" +
         std::to_string(points) + R"(,"probe":"n14"}}})";
}

std::string quick_request(const std::string& id_json, int tag) {
  return R"({"v":2,"id":)" + id_json +
         R"(,"kind":"op","params":{"netlist":"V1 in 0 DC 1\nR1 in out )" +
         std::to_string(1000 + tag) + R"(\nR2 out 0 1000\n.end"}})";
}

TEST_F(RouterTest, ControlRequestsAndVersionRejection) {
  start(2);
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  ASSERT_TRUE(c.send_all("{\"v\":2,\"id\":1,\"kind\":\"ping\"}\n"
                         "{\"v\":2,\"id\":2,\"kind\":\"ping\"}\n"
                         "{\"id\":7,\"kind\":\"ping\"}\n"
                         "{\"v\":1,\"id\":7,\"kind\":\"ping\"}\n"
                         "{}\n"
                         "{\"v\":2,\"id\":3,\"kind\":\"stats\"}\n"
                         "{nope\n"));
  const auto lines = c.read_lines(7, kReadTimeoutMs);
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0], R"({"v":2,"id":1,"ok":true,"result":{"pong":true}})");
  EXPECT_EQ(lines[1], R"({"v":2,"id":2,"ok":true,"result":{"pong":true}})");
  // Anything but the v2 envelope is rejected by the router itself: the
  // stats below show no request was admitted or left in flight.
  EXPECT_EQ(lines[2],
            R"json({"v":2,"id":7,"ok":false,"error":{"code":"unsupported_version",)json"
            R"json("message":"unsupported protocol version (this server speaks v2)"}})json");
  EXPECT_EQ(lines[3],
            R"json({"v":2,"id":7,"ok":false,"error":{"code":"unsupported_version",)json"
            R"json("message":"unsupported protocol version (this server speaks v2)"}})json");
  EXPECT_EQ(lines[4],
            R"json({"v":2,"id":null,"ok":false,"error":{"code":"unsupported_version",)json"
            R"json("message":"unsupported protocol version (this server speaks v2)"}})json");
  EXPECT_NE(lines[5].find("\"router\":{\"workers\":2,\"alive\":2,\"inflight\":0,"
                          "\"requests\":0,"),
            std::string::npos)
      << lines[5];
  EXPECT_NE(lines[6].find("\"code\":\"parse_error\""), std::string::npos);
}

TEST_F(RouterTest, RoutedAnalysisMatchesDirectSessionByteForByte) {
  start(2);
  // Serial no-fault oracle: the same requests through an in-process
  // session.
  runtime::ScopedPool pool(4);
  ResultCache oracle_cache(1024);
  ServerSession oracle(oracle_cache, pool.pool());

  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  std::string batch;
  std::vector<std::string> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(quick_request(std::to_string(i), i));
    batch += reqs.back() + "\n";
  }
  ASSERT_TRUE(c.send_all(batch));
  const auto lines = c.read_lines(8, kReadTimeoutMs);
  ASSERT_EQ(lines.size(), 8u);
  std::map<std::string, std::string> by_id;
  for (const auto& line : lines) {
    const JsonValue v = json_parse(line);
    by_id[std::to_string(static_cast<int>(v.find("id")->as_number()))] = line;
  }
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(by_id[std::to_string(i)], oracle.handle_line(reqs[i]).line) << i;
}

TEST_F(RouterTest, RepeatedKeyAnswersFromRouterCacheTier) {
  start(2);
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  ASSERT_TRUE(c.send_all(quick_request("1", 7) + "\n"));
  auto first = c.read_lines(1, kReadTimeoutMs);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_NE(first[0].find("\"cached\":false"), std::string::npos);
  ASSERT_TRUE(c.send_all(quick_request("2", 7) + "\n"));
  auto second = c.read_lines(1, kReadTimeoutMs);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(second[0].find("\"cached\":true"), std::string::npos);
  // Same key and payload bytes, different provenance flag.
  const auto tail_of = [](const std::string& line) {
    return line.substr(line.find("\"key\":"));
  };
  EXPECT_EQ(tail_of(first[0]), tail_of(second[0]));
  stop_loop();
  EXPECT_GE(loop_->stats().cache_hits, 1u);
}

// The tentpole acceptance test: kill -9 a worker while >= 32 requests are
// in flight. Every request must be answered, with payloads byte-identical
// to a serial no-fault session, and zero client-visible errors.
TEST_F(RouterTest, KillWorkerMidFlightAnswersEverythingByteIdentical) {
  start(2);
  runtime::ScopedPool pool(4);
  ResultCache oracle_cache(1024);
  ServerSession oracle(oracle_cache, pool.pool());

  constexpr int kN = 36;
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  std::string batch;
  std::vector<std::string> reqs;
  for (int i = 0; i < kN; ++i) {
    reqs.push_back(slow_request(std::to_string(i), i));
    batch += reqs.back() + "\n";
  }
  ASSERT_TRUE(c.send_all(batch));

  // Give the router a beat to dispatch, then SIGKILL one worker while its
  // share of the batch is genuinely in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const pid_t victim = pids_[0];
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  const auto lines = c.read_lines(kN, kReadTimeoutMs);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kN));
  std::map<std::string, std::string> by_id;
  for (const auto& line : lines) {
    const JsonValue v = json_parse(line);
    ASSERT_TRUE(v.find("ok")->as_bool()) << line;
    by_id[std::to_string(static_cast<int>(v.find("id")->as_number()))] = line;
  }
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(by_id[std::to_string(i)], oracle.handle_line(reqs[i]).line) << i;
  }
}

TEST_F(RouterTest, AllWorkersDownDegradesCachedHitsAndStructuredUnavailable) {
  Supervisor::Options sopts;
  sopts.restart = false;  // deaths are permanent: a stable "all down" state
  start(2, sopts);

  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  // Populate the router's cache tier with one key.
  ASSERT_TRUE(c.send_all(quick_request("1", 1) + "\n"));
  const auto warm = c.read_lines(1, kReadTimeoutMs);
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_NE(warm[0].find("\"ok\":true"), std::string::npos);

  for (const pid_t pid : pids_) ::kill(pid, SIGKILL);

  // The cached key answers from the router tier even with zero workers.
  // (Retry until the router has noticed both deaths: a request dispatched
  // into the closing window is itself replayed-then-degraded, so every
  // response is still well-formed — cached or unavailable.)
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool saw_cached_answer = false;
  int seq = 100;
  while (std::chrono::steady_clock::now() < deadline && !saw_cached_answer) {
    ASSERT_TRUE(c.send_all(quick_request(std::to_string(seq++), 1) + "\n"));
    const auto lines = c.read_lines(1, 10000);
    ASSERT_EQ(lines.size(), 1u);
    if (lines[0].find("\"cached\":true") != std::string::npos) saw_cached_answer = true;
  }
  EXPECT_TRUE(saw_cached_answer);

  // An uncached key gets a structured unavailable with retry_after_ms,
  // quickly — bounded degradation, not a hang.
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(c.send_all(quick_request("500", 999) + "\n"));
  const auto lines = c.read_lines(1, 15000);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"code\":\"unavailable\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"retry_after_ms\":"), std::string::npos) << lines[0];
  EXPECT_LT(elapsed, 10000);
}

TEST_F(RouterTest, CrashAfterFaultIsSurvivedByReplayAndRestart) {
  Supervisor::Options sopts;
  // Each worker _exit(66)s right after queueing its 4th response; the
  // respawned process inherits the fault and crashes again. Keep every
  // death a "slow" failure so the breaker stays closed for this test.
  sopts.worker_env = {"RFMIX_FAULT=crash_after:4"};
  sopts.fast_failure_ms = 0.0;
  sopts.backoff_initial_ms = 25.0;
  // The whole fleet crash-loops under the batch, so a ticket at the back
  // of a worker's queue legitimately survives many deaths before it runs;
  // the replay cap must not fail it (the cap guards against poison
  // requests, which these are not).
  RouterLoop::Options ropts;
  ropts.max_replays = 64;
  start(2, sopts, ropts);

  constexpr int kN = 24;
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  std::string batch;
  for (int i = 0; i < kN; ++i) batch += quick_request(std::to_string(i), i) + "\n";
  ASSERT_TRUE(c.send_all(batch));
  const auto lines = c.read_lines(kN, kReadTimeoutMs);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kN));
  for (const auto& line : lines) {
    const JsonValue v = json_parse(line);
    EXPECT_TRUE(v.find("ok")->as_bool()) << line;
  }
  // The fleet crashed repeatedly underneath the batch, with the fault's
  // distinctive exit code.
  stop_loop();
  std::uint64_t spawns = 0;
  bool saw_fault_exit = false;
  for (const Supervisor::Worker& w : sup_->workers()) {
    spawns += w.spawn_count;
    if (WIFEXITED(w.last_exit_status) &&
        WEXITSTATUS(w.last_exit_status) == fault::kCrashExitCode)
      saw_fault_exit = true;
  }
  EXPECT_GT(spawns, 2u);
  EXPECT_TRUE(saw_fault_exit);
}

TEST_F(RouterTest, TornWriteWorkerStillDeliversByteCorrectResponses) {
  Supervisor::Options sopts;
  sopts.worker_env = {"RFMIX_FAULT=torn_write"};
  start(2, sopts);
  runtime::ScopedPool pool(4);
  ResultCache oracle_cache(1024);
  ServerSession oracle(oracle_cache, pool.pool());

  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  for (int i = 0; i < 3; ++i) {
    const std::string req = quick_request(std::to_string(i), i);
    ASSERT_TRUE(c.send_all(req + "\n"));
    const auto lines = c.read_lines(1, kReadTimeoutMs);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], oracle.handle_line(req).line);
  }
}

TEST_F(RouterTest, HungWorkersAreKilledByHeartbeatAndRequestsDegrade) {
  Supervisor::Options sopts;
  // Workers accept and execute but every response write stalls 30s: alive
  // processes, dead service. Only the heartbeat can tell.
  sopts.worker_env = {"RFMIX_FAULT=stall_ms:30000"};
  sopts.backoff_initial_ms = 25.0;
  sopts.fast_failure_ms = 0.0;
  RouterLoop::Options ropts;
  ropts.heartbeat_interval_ms = 100.0;
  ropts.heartbeat_timeout_ms = 400.0;
  ropts.max_replays = 2;
  start(2, sopts, ropts);

  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(c.send_all(quick_request("1", 1) + "\n"));
  const auto lines = c.read_lines(1, 60000);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ASSERT_EQ(lines.size(), 1u);
  // The request cannot succeed (every worker is hung); what the client
  // must see is a bounded structured failure, not an infinite wait.
  EXPECT_NE(lines[0].find("\"code\":\"unavailable\""), std::string::npos) << lines[0];
  EXPECT_LT(elapsed, 30000);
  stop_loop();
  EXPECT_GE(loop_->stats().heartbeat_failures, 1u);
}

TEST_F(RouterTest, CancelRemovesInflightTicket) {
  // Stall the worker's response write so the job is guaranteed to still be
  // in flight when the cancel lands — without the stall, a fast machine can
  // finish the sweep inside the 30ms window and the cancel hits nothing.
  Supervisor::Options sopts;
  sopts.worker_env = {"RFMIX_FAULT=stall_ms:30000"};
  start(1, sopts);
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  ASSERT_TRUE(c.send_all(slow_request("\"job\"", 1, 4000) + "\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(c.send_all(
      R"({"v":2,"id":9,"kind":"cancel","params":{"target":"job"}})" "\n"));
  const auto lines = c.read_lines(2, kReadTimeoutMs);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"code\":\"cancelled\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"cancelled\":true"), std::string::npos) << lines[1];
}

TEST(SupervisorTest, CrashLoopOpensBreakerThenHalfOpenProbes) {
  Supervisor::Options opts;
  opts.worker_bin = "/bin/false";  // exits immediately: the crash-loop worker
  opts.workers = 1;
  opts.socket_dir = ::testing::TempDir();
  opts.backoff_initial_ms = 1.0;
  opts.backoff_cap_ms = 8.0;
  opts.fast_failure_ms = 60000.0;  // every death counts as fast
  opts.breaker_threshold = 3;
  opts.breaker_cooloff_ms = 200.0;
  Supervisor sup(opts);
  std::string err;
  ASSERT_TRUE(sup.start(&err)) << err;

  // Drive the supervisor the way the router loop does until the breaker
  // opens.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sup.worker(0).state != Supervisor::WorkerState::kBroken &&
         std::chrono::steady_clock::now() < deadline) {
    sup.poll_children();
    sup.spawn_due();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(sup.worker(0).state, Supervisor::WorkerState::kBroken);
  const std::uint64_t spawns_at_open = sup.worker(0).spawn_count;
  EXPECT_GE(spawns_at_open, 3u);

  // After the cooloff the breaker half-opens: exactly one probe respawn.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const auto respawned = sup.spawn_due();
  ASSERT_EQ(respawned.size(), 1u);
  EXPECT_EQ(sup.worker(0).spawn_count, spawns_at_open + 1);

  // The probe dies too (it's /bin/false): the breaker re-opens.
  const auto deadline2 = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sup.worker(0).state != Supervisor::WorkerState::kBroken &&
         std::chrono::steady_clock::now() < deadline2) {
    sup.poll_children();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(sup.worker(0).state, Supervisor::WorkerState::kBroken);
  sup.shutdown(100.0);
}

TEST(SupervisorTest, ShutdownStopsWorkersPermanently) {
  Supervisor::Options opts;
  opts.worker_bin = RFMIXD_BIN;
  opts.workers = 2;
  static int counter = 0;
  opts.socket_dir = ::testing::TempDir() + "sup-shutdown-" +
                    std::to_string(::getpid()) + "-" + std::to_string(counter++);
  ::mkdir(opts.socket_dir.c_str(), 0700);
  Supervisor sup(opts);
  std::string err;
  ASSERT_TRUE(sup.start(&err)) << err;
  EXPECT_EQ(sup.alive_count(), 2);
  sup.shutdown(2000.0);
  EXPECT_EQ(sup.alive_count(), 0);
  for (const Supervisor::Worker& w : sup.workers())
    EXPECT_EQ(w.state, Supervisor::WorkerState::kStopped);
  EXPECT_TRUE(sup.spawn_due().empty());
}

}  // namespace
}  // namespace rfmix::svc

#endif  // _WIN32
