// In-process protocol tests for the rfmixd server session: request
// parsing, JSON round trips, cache flags, and error reporting for the v2
// envelope.
#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "runtime/thread_pool.hpp"
#include "svc/json_parse.hpp"

namespace rfmix::svc {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : pool_(2), cache_(64), session_(cache_, pool_.pool()) {}

  JsonValue handle(const std::string& line) {
    const Response resp = session_.handle_line(line);
    EXPECT_EQ(resp.line.find('\n'), std::string::npos) << resp.line;  // one line out
    const JsonValue doc = json_parse(resp.line);
    EXPECT_EQ(resp.ok, doc.find("ok")->as_bool()) << resp.line;
    return doc;
  }

  runtime::ScopedPool pool_;
  ResultCache cache_;
  ServerSession session_;
};

TEST_F(ServerTest, Ping) {
  const JsonValue r = handle(R"({"v":2,"id":7,"kind":"ping"})");
  EXPECT_DOUBLE_EQ(r.find("id")->as_number(), 7.0);
  EXPECT_TRUE(r.find("ok")->as_bool());
  EXPECT_TRUE(r.find("result")->find("pong")->as_bool());
}

TEST_F(ServerTest, PingV2) {
  const JsonValue r = handle(R"({"v":2,"id":7,"kind":"ping"})");
  EXPECT_DOUBLE_EQ(r.find("v")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(r.find("id")->as_number(), 7.0);
  EXPECT_TRUE(r.find("ok")->as_bool());
  EXPECT_TRUE(r.find("result")->find("pong")->as_bool());
  EXPECT_EQ(r.find("deprecated"), nullptr);
  // No id: echoed as null, never omitted.
  const JsonValue anonymous = handle(R"({"v":2,"kind":"ping"})");
  EXPECT_TRUE(anonymous.find("ok")->as_bool());
  EXPECT_TRUE(anonymous.find("id")->is_null());
}

TEST_F(ServerTest, OpRoundTrip) {
  const JsonValue r = handle(
      R"({"v":2,"id":"op-1","kind":"op","params":{"netlist":"V1 in 0 DC 10\nR1 in mid 6k\nR2 mid 0 4k\n"}})");
  ASSERT_TRUE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("id")->as_string(), "op-1");
  EXPECT_FALSE(r.find("cached")->as_bool());
  EXPECT_EQ(r.find("key")->as_string().size(), 32u);
  const JsonValue* nodes = r.find("result")->find("nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_NEAR(nodes->find("mid")->as_number(), 4.0, 1e-6);
  EXPECT_NEAR(nodes->find("in")->as_number(), 10.0, 1e-9);
}

TEST_F(ServerTest, OpRoundTripV2ParamsEnvelope) {
  // The same request as a v2 envelope: analysis fields live under params.
  const JsonValue r = handle(
      R"({"v":2,"id":"op-1","kind":"op","params":{"netlist":"V1 in 0 DC 10\nR1 in mid 6k\nR2 mid 0 4k\n"}})");
  ASSERT_TRUE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("id")->as_string(), "op-1");
  const JsonValue* nodes = r.find("result")->find("nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_NEAR(nodes->find("mid")->as_number(), 4.0, 1e-6);
}

TEST_F(ServerTest, AcRoundTrip) {
  const std::string line =
      R"({"v":2,"id":2,"kind":"ac","params":{"netlist":"V1 in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1u\n",)"
      R"("ac":{"f_start_hz":159.154943,"f_stop_hz":1591.54943,"points":2,"log_scale":false,"probe":"out"}}})";
  const JsonValue r = handle(line);
  ASSERT_TRUE(r.find("ok")->as_bool());
  const JsonValue* res = r.find("result");
  ASSERT_EQ(res->find("freqs_hz")->as_array().size(), 2u);
  // At the first point, f = 1/(2*pi*R*C), the RC divider sits at -3 dB
  // with -45 degrees.
  const double re = res->find("real")->as_array()[0].as_number();
  const double im = res->find("imag")->as_array()[0].as_number();
  EXPECT_NEAR(re, 0.5, 1e-6);
  EXPECT_NEAR(im, -0.5, 1e-6);
}

TEST_F(ServerTest, MixerMetricAndCacheFlags) {
  const std::string line =
      R"({"v":2,"id":3,"kind":"mixer_metric","params":{"metric":"gain_db","config":{"mode":"passive"}}})";
  const JsonValue first = handle(line);
  ASSERT_TRUE(first.find("ok")->as_bool());
  EXPECT_FALSE(first.find("cached")->as_bool());
  const double v1 = first.find("result")->find("value")->as_number();
  EXPECT_TRUE(std::isfinite(v1));
  EXPECT_EQ(first.find("result")->find("mode")->as_string(), "passive");

  const JsonValue second = handle(line);
  ASSERT_TRUE(second.find("ok")->as_bool());
  EXPECT_TRUE(second.find("cached")->as_bool());
  EXPECT_EQ(second.find("key")->as_string(), first.find("key")->as_string());
  EXPECT_DOUBLE_EQ(second.find("result")->find("value")->as_number(), v1);
}

TEST_F(ServerTest, ConfigFieldsReachTheModel) {
  // Same metric at two LO frequencies must produce different keys (and
  // generally different gains) — proving config JSON flows into the key.
  const JsonValue a = handle(
      R"({"v":2,"id":1,"kind":"mixer_metric","params":{"metric":"gain_db","config":{"f_lo_hz":2.4e9}}})");
  const JsonValue b = handle(
      R"({"v":2,"id":2,"kind":"mixer_metric","params":{"metric":"gain_db","config":{"f_lo_hz":1.0e9}}})");
  ASSERT_TRUE(a.find("ok")->as_bool());
  ASSERT_TRUE(b.find("ok")->as_bool());
  EXPECT_NE(a.find("key")->as_string(), b.find("key")->as_string());
}

TEST_F(ServerTest, StatsReflectTraffic) {
  handle(R"({"v":2,"id":1,"kind":"mixer_metric","params":{"metric":"gain_db"}})");
  handle(R"({"v":2,"id":2,"kind":"mixer_metric","params":{"metric":"gain_db"}})");
  const JsonValue r = handle(R"({"v":2,"id":3,"kind":"stats"})");
  ASSERT_TRUE(r.find("ok")->as_bool());
  const JsonValue* jobs = r.find("result")->find("jobs");
  EXPECT_DOUBLE_EQ(jobs->find("submitted")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(jobs->find("executed")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(jobs->find("cache_hits")->as_number(), 1.0);
  const JsonValue* cache = r.find("result")->find("cache");
  EXPECT_DOUBLE_EQ(cache->find("entries")->as_number(), 1.0);
}

TEST_F(ServerTest, AnalysisErrorsCarryCodes) {
  const auto code = [](const JsonValue& r) {
    return r.find("error")->find("code")->as_string();
  };
  const auto message = [](const JsonValue& r) {
    return r.find("error")->find("message")->as_string();
  };
  // Netlist parse errors carry line numbers through the protocol.
  JsonValue r = handle(R"({"v":2,"id":11,"kind":"op","params":{"netlist":"V1 a 0 1\nR1 a 0\n"}})");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(code(r), "exec_failed");
  EXPECT_NE(message(r).find("line 2"), std::string::npos);
  // Unknown config field (silently ignoring it would corrupt cache keys).
  r = handle(
      R"({"v":2,"id":12,"kind":"mixer_metric","params":{"metric":"gain_db","config":{"tca_gn":1}}})");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(code(r), "bad_params");
  EXPECT_NE(message(r).find("tca_gn"), std::string::npos);
  // AC without a probe: refused with the params, before keying.
  r = handle(
      R"({"v":2,"id":13,"kind":"ac","params":{"netlist":"V1 a 0 DC 1\nR1 a 0 1k\n","ac":{}}})");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(code(r), "bad_params");
  // Bad mode string.
  r = handle(
      R"({"v":2,"id":14,"kind":"mixer_metric","params":{"metric":"gain_db","config":{"mode":"both"}}})");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(code(r), "bad_params");
  EXPECT_NE(message(r).find("mode"), std::string::npos);
}

TEST_F(ServerTest, V2ErrorsAreStructured) {
  // Malformed JSON: no version to recover, answered as v2 with an offset.
  JsonValue r = handle("{nope");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_TRUE(r.find("id")->is_null());
  EXPECT_EQ(r.find("error")->find("code")->as_string(), "parse_error");
  EXPECT_FALSE(r.find("error")->find("message")->as_string().empty());
  EXPECT_TRUE(r.find("error")->find("offset")->is_number());
  // Unknown kind under v2: stable code, id echoed.
  r = handle(R"({"v":2,"id":9,"kind":"explode"})");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(r.find("id")->as_number(), 9.0);
  EXPECT_EQ(r.find("error")->find("code")->as_string(), "unknown_kind");
  // Unknown protocol version: stable code, id echoed.
  r = handle(R"({"v":3,"id":1,"kind":"ping"})");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("error")->find("code")->as_string(), "unsupported_version");
  // v2 analysis fields must live under params.
  r = handle(R"({"v":2,"id":1,"kind":"op","netlist":"V1 a 0 1\n"})");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("error")->find("code")->as_string(), "invalid_request");
  EXPECT_NE(r.find("error")->find("message")->as_string().find("params"),
            std::string::npos);
  // Bad params keep their own code.
  r = handle(R"({"v":2,"id":1,"kind":"op","params":{}})");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("error")->find("code")->as_string(), "bad_params");
  // A request id must round-trip exactly; 1e999 would echo as null.
  r = handle(R"({"v":2,"id":1e999,"kind":"ping"})");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("error")->find("code")->as_string(), "invalid_request");
}

TEST_F(ServerTest, ServeLoopsOverStream) {
  std::istringstream in(
      "{\"v\":2,\"id\":1,\"kind\":\"ping\"}\n"
      "\n"
      "{\"v\":2,\"id\":2,\"kind\":\"ping\"}\n");
  std::ostringstream out;
  session_.serve(in, out);
  const std::string text = out.str();
  // Two responses, one per line, blank input line skipped.
  ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  const std::string first = text.substr(0, text.find('\n'));
  const JsonValue r = json_parse(first);
  EXPECT_DOUBLE_EQ(r.find("id")->as_number(), 1.0);
  EXPECT_TRUE(r.find("ok")->as_bool());
}

TEST_F(ServerTest, ServeSurvivesEveryMalformedLine) {
  // A session must never exit on bad input: every line gets exactly one
  // response and the session still answers afterwards.
  const std::string garbage[] = {
      "{nope",
      "[1,2,3",
      "\"lone string\"",
      "42",
      "{\"v\":2,\"id\":{},\"kind\":\"ping\"}",
      "{\"v\":\"two\",\"id\":1,\"kind\":\"ping\"}",
      "{\"v\":2,\"id\":1e999,\"kind\":\"ping\"}",
      "{\"v\":2,\"id\":1}",
      "{\"v\":2,\"id\":1,\"kind\":42}",
      "\xff\xfe not even text",
      "{\"v\":2,\"id\":1,\"kind\":\"op\",\"params\":3}",
      "{\"v\":2,\"id\":1,\"kind\":\"ping\",\"stray\":1}",
  };
  std::string input;
  for (const std::string& g : garbage) input += g + "\n";
  input += "{\"v\":2,\"id\":\"alive\",\"kind\":\"ping\"}\n";
  std::istringstream in(input);
  std::ostringstream out;
  session_.serve(in, out);
  const std::string text = out.str();
  ASSERT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            std::size(garbage) + 1)
      << text;
  // Every garbage line produced a parseable, failed response.
  std::istringstream lines(text);
  std::string line;
  for (std::size_t i = 0; i < std::size(garbage); ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    const JsonValue r = json_parse(line);
    EXPECT_FALSE(r.find("ok")->as_bool()) << line;
  }
  ASSERT_TRUE(std::getline(lines, line));
  const JsonValue last = json_parse(line);
  EXPECT_TRUE(last.find("ok")->as_bool()) << line;
  EXPECT_EQ(last.find("id")->as_string(), "alive");
}

TEST_F(ServerTest, CrlfAndWhitespaceLinesAreTolerated) {
  std::istringstream in(
      "{\"v\":2,\"id\":1,\"kind\":\"ping\"}\r\n"
      "   \t\n"
      "{\"v\":2,\"id\":2,\"kind\":\"ping\"}\n");
  std::ostringstream out;
  session_.serve(in, out);
  const std::string text = out.str();
  ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 2) << text;
  EXPECT_EQ(text.find('\r'), std::string::npos);
}

TEST_F(ServerTest, ApplyMixerConfigParsesEveryFieldKind) {
  core::MixerConfig cfg;
  const JsonValue obj = json_parse(
      R"({"mode":"passive","vdd":1.1,"f_lo_hz":3.0e9,"quad_ron":40.5,"tia_rf":2000})");
  apply_mixer_config(obj, cfg);
  EXPECT_EQ(cfg.mode, core::MixerMode::kPassive);
  EXPECT_DOUBLE_EQ(cfg.vdd, 1.1);
  EXPECT_DOUBLE_EQ(cfg.f_lo_hz, 3.0e9);
  EXPECT_DOUBLE_EQ(cfg.quad_ron, 40.5);
  EXPECT_DOUBLE_EQ(cfg.tia_rf, 2000.0);
  EXPECT_THROW(apply_mixer_config(json_parse(R"({"nope":1})"), cfg), RequestError);
}

TEST_F(ServerTest, ParseRequestClassifiesVersions) {
  ParsedRequest req = parse_request(json_parse(R"({"v":2,"id":1,"kind":"ping"})"));
  EXPECT_EQ(req.kind, "ping");
  try {
    parse_request(json_parse(R"({"v":7,"id":1,"kind":"ping"})"));
    FAIL() << "expected RequestError";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupportedVersion);
  }
  // v2 cancel parses into the dedicated fields.
  req = parse_request(
      json_parse(R"({"v":2,"id":3,"kind":"cancel","params":{"target":"job-7"}})"));
  EXPECT_EQ(req.kind, "cancel");
  EXPECT_EQ(req.cancel_target, "\"job-7\"");
  // timeout_ms and priority ride the envelope.
  req = parse_request(json_parse(
      R"({"v":2,"id":4,"kind":"ping","priority":9,"timeout_ms":1500})"));
  EXPECT_EQ(req.priority, 9);
  EXPECT_DOUBLE_EQ(req.timeout_ms, 1500.0);
}

}  // namespace
}  // namespace rfmix::svc
