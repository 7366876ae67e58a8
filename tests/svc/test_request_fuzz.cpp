// Fuzz-style determinism tests for the v2 envelope parser and the socket
// transport's line reassembly: a corpus of valid, malformed, boundary, and
// adversarial request lines is fed through a real ServerLoop socket whole,
// byte-at-a-time, and in seeded random splits — every feed must produce
// responses byte-identical to the serial handle_line oracle. Torn framing
// must be invisible: the transport either delivers the exact same bytes or
// it has a bug.
//
// RouterFuzzTest runs the same feeds through a RouterLoop in front of one
// real rfmixd worker (RFMIXD_BIN): the router's client-side framing must
// be just as invisible, against the same serial oracle.
//
// The corpus (request_corpus.hpp) routes every analysis kind, so the
// router's forward path (the client's own line with the ticket spliced over
// its id) is checked against the same oracle for each op.
#include <gtest/gtest.h>

#ifndef _WIN32

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "line_client.hpp"
#include "runtime/thread_pool.hpp"
#include "request_corpus.hpp"
#include "svc/event_loop.hpp"
#include "svc/request.hpp"
#include "svc/router.hpp"
#include "svc/server.hpp"
#include "svc/supervisor.hpp"

namespace rfmix::svc {
namespace {

/// A dense AC sweep of an RC ladder that keeps a worker busy for a while;
/// `tag` makes the content (and so the cache key) unique.
std::string slow_request(int id, int tag) {
  // Built by appending to named strings: GCC 12 misreports a literal plus a
  // temporary string under -Wrestrict once it inlines the helper.
  std::string netlist = "V1 n0 0 DC 0 AC 1\\n";
  for (int i = 0; i < 14; ++i) {
    const std::string k = std::to_string(i), next = std::to_string(i + 1);
    netlist.append("R").append(k).append(" n").append(k).append(" n").append(next);
    netlist.append(" ").append(std::to_string(1000 + tag)).append("\\n");
    netlist.append("C").append(k).append(" n").append(next).append(" 0 1e-9\\n");
  }
  std::string line = R"({"v":2,"id":)";
  line.append(std::to_string(id)).append(R"(,"kind":"ac","params":{"netlist":")");
  line.append(netlist).append(
      R"(","ac":{"f_start_hz":1e3,"f_stop_hz":1e9,"points":1200,"probe":"n14"}}})");
  return line;
}

/// Serial oracle: every corpus line through a fresh session, in order.
std::vector<std::string> oracle_responses(const std::vector<std::string>& lines) {
  runtime::ScopedPool pool(2);
  ResultCache cache(256);
  ServerSession session(cache, pool.pool());
  std::vector<std::string> out;
  for (const auto& line : lines) out.push_back(session.handle_line(line).line);
  return out;
}

// Read timeout for every reply this suite waits on.
constexpr int kReadTimeoutMs = 60000;

class RequestFuzzTest : public ::testing::Test {
 protected:
  void start(ServerLoop::Options opts = ServerLoop::Options{}) {
    // max_inflight=1 serializes analysis completion per connection, so
    // response order equals request order and whole-stream comparison is
    // exact.
    opts.max_inflight = 1;
    static int counter = 0;
    path_ = ::testing::TempDir() + "rfmixd-fuzz-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++) + ".sock";
    ::unlink(path_.c_str());
    launch(opts);
  }

  /// Bring up the transport under test on path_.
  virtual void launch(const ServerLoop::Options& opts) {
    pool_ = std::make_unique<runtime::ScopedPool>(2);
    cache_ = std::make_unique<ResultCache>(256);
    session_ = std::make_unique<ServerSession>(*cache_, pool_->pool());
    loop_ = std::make_unique<ServerLoop>(*session_, opts);
    std::string err;
    ASSERT_TRUE(loop_->listen_unix(path_, &err)) << err;
    thread_ = std::thread([this] { loop_->run(); });
  }

  void TearDown() override {
    if (loop_) loop_->request_shutdown();
    if (thread_.joinable()) thread_.join();
    loop_.reset();
    // A ScopedPool restores the pool override it replaced when it dies, so
    // pools must die in reverse order of creation: release this run's pool
    // before a later start() installs the next one.
    session_.reset();
    cache_.reset();
    pool_.reset();
    if (!path_.empty()) ::unlink(path_.c_str());
  }

  // The feeds, shared by the server- and router-backed fixtures.
  void whole_line_feed();
  void byte_at_a_time_feed();
  void seeded_random_splits();
  void two_clients_interleaved();
  void oversized_line();
  void terminated_line_one_byte_over();

  std::unique_ptr<runtime::ScopedPool> pool_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<ServerSession> session_;
  std::unique_ptr<ServerLoop> loop_;
  std::thread thread_;
  std::string path_;
};

/// The same feeds through rfmix-router's loop in front of one rfmixd
/// worker process, with the router's per-client cap at 1.
class RouterFuzzTest : public RequestFuzzTest {
 protected:
  void launch(const ServerLoop::Options& opts) override {
    const std::string dir = path_ + ".workers";
    ::mkdir(dir.c_str(), 0700);
    Supervisor::Options sopts;
    sopts.worker_bin = RFMIXD_BIN;
    sopts.workers = 1;
    sopts.socket_dir = dir;
    sup_ = std::make_unique<Supervisor>(sopts);
    std::string err;
    ASSERT_TRUE(sup_->start(&err)) << err;
    cache_ = std::make_unique<ResultCache>(256);
    RouterLoop::Options ropts;
    ropts.max_inflight = opts.max_inflight;
    ropts.max_line_bytes = opts.max_line_bytes;
    router_ = std::make_unique<RouterLoop>(*sup_, *cache_, ropts);
    ASSERT_TRUE(router_->listen_unix(path_, &err)) << err;
    thread_ = std::thread([this] { router_->run(); });
  }

  void TearDown() override {
    if (router_) router_->request_shutdown();
    if (thread_.joinable()) thread_.join();
    router_.reset();
    if (sup_) sup_->shutdown(2000.0);
    sup_.reset();
    RequestFuzzTest::TearDown();
  }

  std::unique_ptr<Supervisor> sup_;
  std::unique_ptr<RouterLoop> router_;
};

void RequestFuzzTest::whole_line_feed() {
  const auto lines = request_corpus();
  const auto expected = oracle_responses(lines);
  start();
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  std::string stream;
  for (const auto& line : lines) stream += line + "\n";
  ASSERT_TRUE(c.send_all(stream));
  const auto got = c.read_lines(lines.size(), kReadTimeoutMs);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(got[i], expected[i]) << i;
}

void RequestFuzzTest::byte_at_a_time_feed() {
  const auto lines = request_corpus();
  const auto expected = oracle_responses(lines);
  start();
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  std::string stream;
  for (const auto& line : lines) stream += line + "\n";
  for (const char ch : stream) ASSERT_TRUE(c.send_all(std::string(1, ch)));
  const auto got = c.read_lines(lines.size(), kReadTimeoutMs);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(got[i], expected[i]) << i;
}

void RequestFuzzTest::seeded_random_splits() {
  const auto lines = request_corpus();
  const auto expected = oracle_responses(lines);
  std::string stream;
  for (const auto& line : lines) stream += line + "\n";

  for (const std::uint32_t seed : {1u, 7u, 1234u}) {
    start();
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> chunk(1, 23);
    LineClient c;
    ASSERT_TRUE(c.connect_to(path_));
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n = std::min(chunk(rng), stream.size() - off);
      ASSERT_TRUE(c.send_all(stream.substr(off, n)));
      off += n;
    }
    const auto got = c.read_lines(lines.size(), kReadTimeoutMs);
    ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(got[i], expected[i]) << "seed " << seed << " line " << i;
    TearDown();
  }
}

void RequestFuzzTest::two_clients_interleaved() {
  // Two connections, disjoint key sets, bytes drip-fed alternately: per-
  // connection streams must still match the per-half oracles exactly.
  std::vector<std::string> half_a, half_b;
  for (int i = 0; i < 6; ++i) {
    half_a.push_back(
        R"({"v":2,"id":)" + std::to_string(i) +
        R"(,"kind":"op","params":{"netlist":"V1 in 0 DC 1\nR1 in out )" +
        std::to_string(1100 + i) + R"(\nR2 out 0 1000\n.end"}})");
    half_b.push_back(
        R"({"v":2,"id":)" + std::to_string(100 + i) +
        R"(,"kind":"op","params":{"netlist":"V1 in 0 DC 1\nR1 in out )" +
        std::to_string(2100 + i) + R"(\nR2 out 0 1000\n.end"}})");
  }
  const auto expected_a = oracle_responses(half_a);
  const auto expected_b = oracle_responses(half_b);

  start();
  LineClient a, b;
  ASSERT_TRUE(a.connect_to(path_));
  ASSERT_TRUE(b.connect_to(path_));
  std::string stream_a, stream_b;
  for (const auto& l : half_a) stream_a += l + "\n";
  for (const auto& l : half_b) stream_b += l + "\n";
  std::mt19937 rng(42);
  std::uniform_int_distribution<std::size_t> chunk(1, 9);
  std::size_t off_a = 0, off_b = 0;
  while (off_a < stream_a.size() || off_b < stream_b.size()) {
    if (off_a < stream_a.size()) {
      const std::size_t n = std::min(chunk(rng), stream_a.size() - off_a);
      ASSERT_TRUE(a.send_all(stream_a.substr(off_a, n)));
      off_a += n;
    }
    if (off_b < stream_b.size()) {
      const std::size_t n = std::min(chunk(rng), stream_b.size() - off_b);
      ASSERT_TRUE(b.send_all(stream_b.substr(off_b, n)));
      off_b += n;
    }
  }
  const auto got_a = a.read_lines(half_a.size(), kReadTimeoutMs);
  const auto got_b = b.read_lines(half_b.size(), kReadTimeoutMs);
  ASSERT_EQ(got_a.size(), expected_a.size());
  ASSERT_EQ(got_b.size(), expected_b.size());
  for (std::size_t i = 0; i < expected_a.size(); ++i) EXPECT_EQ(got_a[i], expected_a[i]);
  for (std::size_t i = 0; i < expected_b.size(); ++i) EXPECT_EQ(got_b[i], expected_b[i]);
}

/// The size-limit parse_error, then EOF: the server hangs up instead of
/// waiting for more bytes.
void expect_size_limit_error_then_eof(LineClient& c) {
  const auto lines = c.read_lines(1, kReadTimeoutMs);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"code\":\"parse_error\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("exceeds size limit"), std::string::npos) << lines[0];
  char byte;
  pollfd p{c.fd, POLLIN, 0};
  ASSERT_GT(::poll(&p, 1, 30000), 0);
  EXPECT_EQ(::recv(c.fd, &byte, 1, 0), 0);
}

void RequestFuzzTest::oversized_line() {
  ServerLoop::Options opts;
  opts.max_line_bytes = 4096;
  start(opts);
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  // 8 KiB with no newline: unresynchronizable garbage.
  ASSERT_TRUE(c.send_all(std::string(8192, 'a')));
  expect_size_limit_error_then_eof(c);
}

void RequestFuzzTest::terminated_line_one_byte_over() {
  // A valid ping padded with spaces to one byte over the cap, newline in
  // the same write: the cap holds however the reads split the line.
  ServerLoop::Options opts;
  opts.max_line_bytes = 4096;
  start(opts);
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  std::string line = R"({"v":2,"id":1,"kind":"ping"})";
  line.append(opts.max_line_bytes + 1 - line.size(), ' ');
  ASSERT_TRUE(c.send_all(line + "\n"));
  expect_size_limit_error_then_eof(c);
}

TEST_F(RequestFuzzTest, WholeLineFeedMatchesOracle) { whole_line_feed(); }
TEST_F(RequestFuzzTest, ByteAtATimeFeedIsByteIdenticalToWholeLines) {
  byte_at_a_time_feed();
}
TEST_F(RequestFuzzTest, SeededRandomSplitsAreByteIdenticalToWholeLines) {
  seeded_random_splits();
}
TEST_F(RequestFuzzTest, TwoClientsInterleavedTornFeeds) { two_clients_interleaved(); }
TEST_F(RequestFuzzTest, OversizedLineAnswersStructuredErrorAndCloses) {
  oversized_line();
}
TEST_F(RequestFuzzTest, TerminatedLineOneByteOverTheCapIsRefused) {
  terminated_line_one_byte_over();
}

TEST_F(RouterFuzzTest, WholeLineFeedMatchesOracle) { whole_line_feed(); }
TEST_F(RouterFuzzTest, ByteAtATimeFeedIsByteIdenticalToWholeLines) {
  byte_at_a_time_feed();
}
TEST_F(RouterFuzzTest, SeededRandomSplitsAreByteIdenticalToWholeLines) {
  seeded_random_splits();
}
TEST_F(RouterFuzzTest, TwoClientsInterleavedTornFeeds) { two_clients_interleaved(); }
TEST_F(RouterFuzzTest, OversizedLineAnswersStructuredErrorAndCloses) {
  oversized_line();
}
TEST_F(RouterFuzzTest, TerminatedLineOneByteOverTheCapIsRefused) {
  terminated_line_one_byte_over();
}

TEST_F(RouterFuzzTest, LineWithNoRoomForTheTicketIsRefusedAtTheRouter) {
  // Router and worker share the default cap. A no-id line 10 bytes under
  // it would pass the cap only until the router inserts "id":<ticket>, so
  // the router must refuse it itself rather than hand the worker a line
  // the worker refuses.
  start();
  const std::size_t cap = ServerLoop::Options{}.max_line_bytes;
  std::string line =
      R"({"v":2,"kind":"op","params":{"netlist":"V1 in 0 DC 1\nR1 in 0 1000\n.end"}})";
  line.append(cap - 10 - line.size(), ' ');
  {
    LineClient c;
    ASSERT_TRUE(c.connect_to(path_));
    ASSERT_TRUE(c.send_all(line + "\n"));
    expect_size_limit_error_then_eof(c);
  }
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  ASSERT_TRUE(c.send_all("{\"v\":2,\"id\":2,\"kind\":\"stats\"}\n"));
  const auto lines = c.read_lines(1, kReadTimeoutMs);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"worker_restarts\":0,"), std::string::npos) << lines[0];
}

TEST_F(RouterFuzzTest, EofWithUnterminatedFinalLineStillAnswers) {
  start();
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  ASSERT_TRUE(c.send_all(R"({"v":2,"id":"last","kind":"ping"})"));  // no newline
  c.shutdown_write();
  const auto lines = c.read_lines(1, kReadTimeoutMs);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], R"({"v":2,"id":"last","ok":true,"result":{"pong":true}})");
}

TEST_F(RouterFuzzTest, PeerDisconnectMidResponseIsConnectionCleanupNotDeath) {
  // A client that vanishes with responses still owed costs exactly its own
  // connection; later clients get normal service.
  start();
  {
    LineClient doomed;
    ASSERT_TRUE(doomed.connect_to(path_));
    std::string burst;
    for (int i = 0; i < 4; ++i) burst += slow_request(i, 70 + i) + "\n";
    ASSERT_TRUE(doomed.send_all(burst));
  }
  LineClient c;
  ASSERT_TRUE(c.connect_to(path_));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(c.send_all("{\"v\":2,\"id\":7,\"kind\":\"ping\"}\n"));
    const auto lines = c.read_lines(1, kReadTimeoutMs);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], R"({"v":2,"id":7,"ok":true,"result":{"pong":true}})");
  }
}

}  // namespace
}  // namespace rfmix::svc

#endif  // _WIN32
