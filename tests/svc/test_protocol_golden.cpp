// Protocol golden tests: pin the exact response bytes of the rfmixd wire
// protocol, v2, per op and per error code. A client matches responses by
// byte-level conventions (field order, structured error shape), so any
// change here is a wire-format break and must be deliberate.
#include <gtest/gtest.h>

#include <string>

#include "runtime/thread_pool.hpp"
#include "svc/json_parse.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"

namespace rfmix::svc {
namespace {

class ProtocolGoldenTest : public ::testing::Test {
 protected:
  ProtocolGoldenTest() : pool_(1), cache_(64), session_(cache_, pool_.pool()) {}

  std::string reply(const std::string& line) { return session_.handle_line(line).line; }

  runtime::ScopedPool pool_;
  ResultCache cache_;
  ServerSession session_;
};

TEST_F(ProtocolGoldenTest, PingV2) {
  EXPECT_EQ(reply(R"json({"v":2,"id":7,"kind":"ping"})json"),
            R"json({"v":2,"id":7,"ok":true,"result":{"pong":true}})json");
  EXPECT_EQ(reply(R"json({"v":2,"id":"client-1","kind":"ping"})json"),
            R"json({"v":2,"id":"client-1","ok":true,"result":{"pong":true}})json");
}

TEST_F(ProtocolGoldenTest, StatsOnFreshSession) {
  // stats reports numeric provenance after the counters: the
  // canonicalization epoch behind every cache key.
  EXPECT_EQ(
      reply(R"json({"v":2,"id":1,"kind":"stats"})json"),
      R"json({"v":2,"id":1,"ok":true,"result":{"jobs":{"submitted":0,"cache_hits":0,)json"
      R"json("deduped":0,"executed":0,"failed":0},"cache":{"hits":0,"misses":0,)json"
      R"json("evictions":0,"stores":0,"disk_hits":0,"disk_stores":0,"disk_corrupt":0,)json"
      R"json("entries":0},"canonical_epoch":2}})json");
}

TEST_F(ProtocolGoldenTest, CancelWithNothingPending) {
  EXPECT_EQ(reply(R"json({"v":2,"id":9,"kind":"cancel","params":{"target":4}})json"),
            R"json({"v":2,"id":9,"ok":true,"result":{"cancelled":false,"target":4}})json");
  EXPECT_EQ(reply(R"json({"v":2,"id":9,"kind":"cancel","params":{"target":"j-1"}})json"),
            R"json({"v":2,"id":9,"ok":true,"result":{"cancelled":false,"target":"j-1"}})json");
}

TEST_F(ProtocolGoldenTest, ParseErrorV2) {
  EXPECT_EQ(reply("{nope"),
            R"json({"v":2,"id":null,"ok":false,"error":{"code":"parse_error",)json"
            R"json("message":"json offset 1: expected object key string",)json"
            R"json("offset":1}})json");
}

TEST_F(ProtocolGoldenTest, UnsupportedVersion) {
  EXPECT_EQ(reply(R"json({"v":3,"id":2,"kind":"ping"})json"),
            R"json({"v":2,"id":2,"ok":false,"error":{"code":"unsupported_version",)json"
            R"json("message":"unsupported protocol version (this server speaks v2)json" R"x()"}})x");
  // v2 is the only envelope: a version-less request, an explicit v1 and an
  // empty object are rejected the same way, the id echoed when present.
  EXPECT_EQ(reply(R"json({"id":7,"kind":"ping"})json"),
            R"json({"v":2,"id":7,"ok":false,"error":{"code":"unsupported_version",)json"
            R"json("message":"unsupported protocol version (this server speaks v2)"}})json");
  EXPECT_EQ(reply(R"json({"v":1,"id":7,"kind":"ping"})json"),
            R"json({"v":2,"id":7,"ok":false,"error":{"code":"unsupported_version",)json"
            R"json("message":"unsupported protocol version (this server speaks v2)"}})json");
  EXPECT_EQ(reply(R"json({})json"),
            R"json({"v":2,"id":null,"ok":false,"error":{"code":"unsupported_version",)json"
            R"json("message":"unsupported protocol version (this server speaks v2)"}})json");
}

TEST_F(ProtocolGoldenTest, UnknownKind) {
  EXPECT_EQ(reply(R"json({"v":2,"id":3,"kind":"explode"})json"),
            R"json({"v":2,"id":3,"ok":false,"error":{"code":"unknown_kind",)json"
            R"json("message":"unknown request kind 'explode' (expected ping, stats, cancel, op, ac, mixer_metric, npath_zin, or gen)json" R"x()"}})x");
}

TEST_F(ProtocolGoldenTest, BadParamsV2) {
  EXPECT_EQ(reply(R"json({"v":2,"id":4,"kind":"op","params":{}})json"),
            R"json({"v":2,"id":4,"ok":false,"error":{"code":"bad_params",)json"
            R"json("message":"missing required field 'netlist'"}})json");
}

TEST_F(ProtocolGoldenTest, InvalidRequestV2) {
  EXPECT_EQ(reply(R"json({"v":2,"id":5,"kind":"op","netlist":"x"})json"),
            R"json({"v":2,"id":5,"ok":false,"error":{"code":"invalid_request",)json"
            R"json("message":"unknown envelope field 'netlist' (v2 request parameters live under \"params\)json" R"x(")"}})x");
}

TEST_F(ProtocolGoldenTest, AnalysisEnvelopeV2) {
  // The physics payload is pinned by the golden-metrics suite; here the
  // envelope around it is pinned byte-for-byte: echoed id, cache/dedup
  // provenance, content key, then the result.
  const std::string netlist = "V1 in 0 DC 10\nR1 in mid 6k\nR2 mid 0 4k\n";
  const ParsedRequest req = parse_request(json_parse(
      R"json({"v":2,"id":"op-9","kind":"op","params":{"netlist":"V1 in 0 DC 10\nR1 in mid 6k\nR2 mid 0 4k\n"}})json"));
  const std::string expected = std::string(R"json({"v":2,"id":"op-9","ok":true,)json") +
                               R"json("cached":false,"deduped":false,"key":")json" +
                               request_key(req.request).hex() + R"json(","result":)json" +
                               execute_request(req.request) + "}";
  EXPECT_EQ(reply(R"json({"v":2,"id":"op-9","kind":"op","params":{"netlist":"V1 in 0 DC 10\nR1 in mid 6k\nR2 mid 0 4k\n"}})json"),
            expected);
  // Identical request again: only the cached flag may change.
  std::string cached_expected = expected;
  cached_expected.replace(cached_expected.find(R"json("cached":false)json"),
                          std::string(R"json("cached":false)json").size(),
                          R"json("cached":true)json");
  EXPECT_EQ(reply(R"json({"v":2,"id":"op-9","kind":"op","params":{"netlist":"V1 in 0 DC 10\nR1 in mid 6k\nR2 mid 0 4k\n"}})json"),
            cached_expected);
}

TEST_F(ProtocolGoldenTest, NpathZinEnvelopeV2) {
  // Same envelope contract as op/ac/mixer_metric: cold run carries
  // cached:false plus the content key; the identical request again returns
  // the byte-identical payload with only the cached flag flipped.
  const std::string line =
      R"json({"v":2,"id":"np-1","kind":"npath_zin","params":{"phases":4,"harmonics":8,)json"
      R"json("samples":64,"f_lo_hz":1e9,"sweep":{"f_start_hz":9e8,"f_stop_hz":1.1e9,"points":3}}})json";
  const ParsedRequest req = parse_request(json_parse(line));
  const std::string expected = std::string(R"json({"v":2,"id":"np-1","ok":true,)json") +
                               R"json("cached":false,"deduped":false,"key":")json" +
                               request_key(req.request).hex() + R"json(","result":)json" +
                               execute_request(req.request) + "}";
  EXPECT_EQ(reply(line), expected);
  std::string cached_expected = expected;
  cached_expected.replace(cached_expected.find(R"json("cached":false)json"),
                          std::string(R"json("cached":false)json").size(),
                          R"json("cached":true)json");
  EXPECT_EQ(reply(line), cached_expected);
}

TEST_F(ProtocolGoldenTest, NpathZinStrictParams) {
  const std::string r = reply(
      R"json({"v":2,"id":9,"kind":"npath_zin","params":{"phasez":4}})json");
  EXPECT_EQ(r.find(R"json({"v":2,"id":9,"ok":false,"error":{"code":"bad_params",)json"
                   R"json("message":"unknown npath_zin field 'phasez'")json"),
            0u)
      << r;
}

TEST_F(ProtocolGoldenTest, GenEnvelopeV2) {
  // gen requests ride the same envelope: cold run carries cached:false
  // plus the content key (derived from the GenSpec, not the rendered
  // deck); the identical request replays as a cache hit with only the
  // cached flag flipped.
  const std::string line =
      R"json({"v":2,"id":"g-1","kind":"gen","params":{"template":"ladder",)json"
      R"json("depth":3,"analysis":"op"}})json";
  const ParsedRequest req = parse_request(json_parse(line));
  const std::string expected = std::string(R"json({"v":2,"id":"g-1","ok":true,)json") +
                               R"json("cached":false,"deduped":false,"key":")json" +
                               request_key(req.request).hex() + R"json(","result":)json" +
                               execute_request(req.request) + "}";
  EXPECT_EQ(reply(line), expected);
  std::string cached_expected = expected;
  cached_expected.replace(cached_expected.find(R"json("cached":false)json"),
                          std::string(R"json("cached":false)json").size(),
                          R"json("cached":true)json");
  EXPECT_EQ(reply(line), cached_expected);
}

TEST_F(ProtocolGoldenTest, GenFlatAndHierarchicalKeysDiffer) {
  // hierarchical is part of the canonical record: the solved results are
  // bit-identical, but the netlist payload differs, so the two renderings
  // must not collide on one cache entry.
  const std::string hier = reply(
      R"json({"v":2,"id":1,"kind":"gen","params":{"template":"ladder","depth":2,)json"
      R"json("hierarchical":true}})json");
  const std::string flat = reply(
      R"json({"v":2,"id":1,"kind":"gen","params":{"template":"ladder","depth":2,)json"
      R"json("hierarchical":false}})json");
  const auto key = [](const std::string& s) {
    const std::size_t at = s.find(R"json("key":)json");
    return s.substr(at, s.find(',', at) - at);
  };
  EXPECT_NE(key(hier), key(flat));
}

TEST_F(ProtocolGoldenTest, GenBadParams) {
  EXPECT_EQ(reply(R"json({"v":2,"id":9,"kind":"gen","params":{}})json"),
            R"json({"v":2,"id":9,"ok":false,"error":{"code":"bad_params",)json"
            R"json("message":"missing required field 'template'"}})json");
  const std::string unknown = reply(
      R"json({"v":2,"id":9,"kind":"gen","params":{"template":"ladder","depthh":3}})json");
  EXPECT_EQ(unknown.find(R"json({"v":2,"id":9,"ok":false,"error":{"code":"bad_params",)json"
                         R"json("message":"unknown gen field 'depthh'")json"),
            0u)
      << unknown;
  const std::string bad_template = reply(
      R"json({"v":2,"id":9,"kind":"gen","params":{"template":"nonsense"}})json");
  EXPECT_EQ(
      bad_template.find(
          R"json({"v":2,"id":9,"ok":false,"error":{"code":"bad_params",)json"
          R"json("message":"unknown gen template 'nonsense' (expected rx_array, mixer_slice, or ladder)json"),
      0u)
      << bad_template;
}

TEST_F(ProtocolGoldenTest, TimeoutAndCancelledShapes) {
  // These codes are produced by the event loop (deadline expiry, cancel op);
  // pin the exact formatter output the loop sends.
  EXPECT_EQ(make_error_response("11", ErrorCode::kTimeout,
                                "request deadline exceeded")
                .line,
            R"json({"v":2,"id":11,"ok":false,"error":{"code":"timeout",)json"
            R"json("message":"request deadline exceeded"}})json");
  EXPECT_EQ(make_error_response("\"j-3\"", ErrorCode::kCancelled,
                                "request cancelled by client")
                .line,
            R"json({"v":2,"id":"j-3","ok":false,"error":{"code":"cancelled",)json"
            R"json("message":"request cancelled by client"}})json");
}

TEST_F(ProtocolGoldenTest, ErrorCodeNamesAreStable) {
  EXPECT_EQ(error_code_name(ErrorCode::kParseError), "parse_error");
  EXPECT_EQ(error_code_name(ErrorCode::kInvalidRequest), "invalid_request");
  EXPECT_EQ(error_code_name(ErrorCode::kUnsupportedVersion), "unsupported_version");
  EXPECT_EQ(error_code_name(ErrorCode::kUnknownKind), "unknown_kind");
  EXPECT_EQ(error_code_name(ErrorCode::kBadParams), "bad_params");
  EXPECT_EQ(error_code_name(ErrorCode::kExecFailed), "exec_failed");
  EXPECT_EQ(error_code_name(ErrorCode::kTimeout), "timeout");
  EXPECT_EQ(error_code_name(ErrorCode::kCancelled), "cancelled");
}

}  // namespace
}  // namespace rfmix::svc
