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
      R"json("entries":0},"canonical_epoch":5}})json");
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

TEST_F(ProtocolGoldenTest, AcProbeAndGridChecksAreBadParams) {
  // The ac op checks its probe and grid before the netlist is keyed, with
  // the bounds gen and npath_zin use: [2, 4096] points, 0 < start < stop.
  const auto ac = [](const std::string& fields) {
    return R"json({"v":2,"id":8,"kind":"ac","params":{)json"
           R"json("netlist":"V1 in 0 DC 0 AC 1\nR1 in out 1k\n","ac":{)json" +
           fields + "}}}";
  };
  EXPECT_EQ(reply(ac(R"json("points":100000000,"probe":"out")json")),
            R"json({"v":2,"id":8,"ok":false,"error":{"code":"bad_params",)json"
            R"json("message":"ac points must be in [2, 4096]"}})json");
  EXPECT_EQ(reply(ac(R"json("points":1,"probe":"out")json")),
            R"json({"v":2,"id":8,"ok":false,"error":{"code":"bad_params",)json"
            R"json("message":"ac points must be in [2, 4096]"}})json");
  EXPECT_EQ(reply(ac(R"json("f_start_hz":0,"probe":"out")json")),
            R"json({"v":2,"id":8,"ok":false,"error":{"code":"bad_params",)json"
            R"json("message":"ac requires 0 < f_start_hz < f_stop_hz"}})json");
  EXPECT_EQ(reply(ac(R"json("f_start_hz":1e6,"f_stop_hz":1e6,"probe":"out")json")),
            R"json({"v":2,"id":8,"ok":false,"error":{"code":"bad_params",)json"
            R"json("message":"ac requires 0 < f_start_hz < f_stop_hz"}})json");
  EXPECT_EQ(reply(ac(R"json("points":16)json")),
            R"json({"v":2,"id":8,"ok":false,"error":{"code":"bad_params",)json"
            R"json("message":"ac request requires a probe node"}})json");
}

TEST_F(ProtocolGoldenTest, MixerConfigTypeErrorOutranksUnknownName) {
  // The config value's type is checked before its name is looked up.
  EXPECT_EQ(reply(R"json({"v":2,"id":6,"kind":"mixer_metric","params":{"metric":"gain_db",)json"
                  R"json("config":{"bogus":"x"}}})json"),
            R"json({"v":2,"id":6,"ok":false,"error":{"code":"bad_params",)json"
            R"json("message":"json value is not a number"}})json");
  EXPECT_EQ(reply(R"json({"v":2,"id":6,"kind":"mixer_metric","params":{"metric":"gain_db",)json"
                  R"json("config":{"bogus":1}}})json"),
            R"json({"v":2,"id":6,"ok":false,"error":{"code":"bad_params",)json"
            R"json("message":"unknown config field 'bogus'"}})json");
}

TEST_F(ProtocolGoldenTest, MixerMetricRfCheckIsBadParams) {
  // A nonzero f_rf_hz retunes the LO to f_rf_hz - f_if_hz, so it must
  // exceed f_if_hz; the check runs before keying, for every metric.
  const std::string refused =
      R"json({"v":2,"id":7,"ok":false,"error":{"code":"bad_params",)json"
      R"json("message":"mixer_metric requires f_rf_hz == 0 or f_rf_hz > f_if_hz"}})json";
  EXPECT_EQ(reply(R"json({"v":2,"id":7,"kind":"mixer_metric","params":{"metric":"nf_dsb_db",)json"
                  R"json("config":{"mode":"active"},"f_rf_hz":1e6}})json"),
            refused);
  EXPECT_EQ(reply(R"json({"v":2,"id":7,"kind":"mixer_metric","params":{"metric":"gain_db",)json"
                  R"json("config":{"mode":"active"},"f_rf_hz":-5}})json"),
            refused);
  EXPECT_EQ(reply(R"json({"v":2,"id":7,"kind":"mixer_metric","params":{"metric":"iip3_dbm",)json"
                  R"json("config":{"mode":"active"},"f_if_hz":2e9,"f_rf_hz":2e9}})json"),
            refused);
}

TEST_F(ProtocolGoldenTest, MixerConfigRangeIsBadParams) {
  // Every config field and frequency must be finite (1e999 parses to inf)
  // and the temperature positive, checked before keying for every metric,
  // so such a request is neither executed nor cached, whichever fields the
  // metric reads.
  const std::string refused =
      R"json({"v":2,"id":11,"ok":false,"error":{"code":"bad_params",)json"
      R"json("message":"mixer_metric requires config temperature_k > 0"}})json";
  for (const char* metric : {"gain_db", "nf_dsb_db", "iip3_dbm"})
    for (const char* t : {"-100", "0"}) {
      std::string line = R"json({"v":2,"id":11,"kind":"mixer_metric","params":{"metric":")json";
      line += metric;
      line += R"json(","config":{"mode":"active","temperature_k":)json";
      line += t;
      EXPECT_EQ(reply(line + "}}}"), refused) << metric << " at " << t << " K";
    }
  EXPECT_EQ(reply(R"json({"v":2,"id":11,"kind":"mixer_metric","params":{"metric":"gain_db",)json"
                  R"json("config":{"mode":"active","vdd":1e999}}})json"),
            R"json({"v":2,"id":11,"ok":false,"error":{"code":"bad_params",)json"
            R"json("message":"mixer_metric config field 'vdd' must be finite"}})json");
  EXPECT_EQ(reply(R"json({"v":2,"id":11,"kind":"mixer_metric","params":{"metric":"nf_dsb_db",)json"
                  R"json("config":{"mode":"active"},"f_if_hz":1e999}})json"),
            R"json({"v":2,"id":11,"ok":false,"error":{"code":"bad_params",)json"
            R"json("message":"mixer_metric requires finite f_if_hz and f_rf_hz"}})json");
  EXPECT_EQ(
      reply(R"json({"v":2,"id":1,"kind":"stats"})json"),
      R"json({"v":2,"id":1,"ok":true,"result":{"jobs":{"submitted":0,"cache_hits":0,)json"
      R"json("deduped":0,"executed":0,"failed":0},"cache":{"hits":0,"misses":0,)json"
      R"json("evictions":0,"stores":0,"disk_hits":0,"disk_stores":0,"disk_corrupt":0,)json"
      R"json("entries":0},"canonical_epoch":5}})json");
}

// The stats reply of a session that has executed and stored nothing.
const char* const kNothingRun =
    R"json({"v":2,"id":1,"ok":true,"result":{"jobs":{"submitted":0,"cache_hits":0,)json"
    R"json("deduped":0,"executed":0,"failed":0},"cache":{"hits":0,"misses":0,)json"
    R"json("evictions":0,"stores":0,"disk_hits":0,"disk_stores":0,"disk_corrupt":0,)json"
    R"json("entries":0},"canonical_epoch":5}})json";

std::string bad_params(const std::string& id, const std::string& message) {
  return R"json({"v":2,"id":)json" + id +
         R"json(,"ok":false,"error":{"code":"bad_params","message":")json" + message +
         R"json("}})json";
}

TEST_F(ProtocolGoldenTest, NpathZinNonFiniteNumbersAreBadParams) {
  // 1e999 parses to +inf, which passes every sign check: such a front end
  // would answer a flat Zin or a null S11 into the cache, or fail
  // mid-solve. Every number is checked finite before keying; a value
  // refused for its sign keeps its message.
  const auto npath = [](const std::string& params) {
    return R"json({"v":2,"id":12,"kind":"npath_zin","params":{)json" + params + "}}";
  };
  for (const char* field : {"f_lo_hz", "r_source", "switch_ron", "zbb_r", "zbb_c", "c_rf"}) {
    std::string params = "\"";
    params += field;
    params += "\":1e999";
    EXPECT_EQ(reply(npath(params)),
              bad_params("12", std::string("NpathSpec: ") + field + " must be finite"))
        << field;
  }
  EXPECT_EQ(reply(npath(R"json("sweep":{"f_stop_hz":1e999})json")),
            bad_params("12", "npath_zin sweep requires a finite f_stop_hz"));
  EXPECT_EQ(reply(npath(R"json("f_lo_hz":-1e999)json")),
            bad_params("12", "NpathSpec: f_lo_hz must be positive"));
  EXPECT_EQ(reply(npath(R"json("sweep":{"f_start_hz":1e999})json")),
            bad_params("12", "npath_zin sweep requires 0 < f_start_hz < f_stop_hz"));
  EXPECT_EQ(reply(R"json({"v":2,"id":1,"kind":"stats"})json"), kNothingRun);
}

TEST_F(ProtocolGoldenTest, GenNonFiniteNumbersAreBadParams) {
  // An infinite resistance would render as "null" in the deck, which the
  // netlist analysis caches and the op cannot parse. Every analysis
  // refuses it before keying.
  const auto gen = [](const std::string& params) {
    return R"json({"v":2,"id":13,"kind":"gen","params":{"template":"rx_array","elements":1,)json" +
           params + "}}";
  };
  for (const char* field : {"r_source", "switch_ron", "zbb_r", "zbb_c", "f_lo_hz"}) {
    std::string params = "\"";
    params += field;
    params += "\":1e999";
    EXPECT_EQ(reply(gen(params)),
              bad_params("13", std::string("gen field '") + field + "' must be finite"))
        << field;
  }
  EXPECT_EQ(reply(gen(R"json("zbb_r":1e999,"analysis":"op")json")),
            bad_params("13", "gen field 'zbb_r' must be finite"));
  EXPECT_EQ(reply(gen(R"json("f_lo_hz":1e999,"analysis":"npath_zin")json")),
            bad_params("13", "gen field 'f_lo_hz' must be finite"));
  EXPECT_EQ(reply(gen(R"json("analysis":"ac","ac":{"f_stop_hz":1e999})json")),
            bad_params("13", "gen ac requires a finite f_stop_hz"));
  EXPECT_EQ(reply(gen(R"json("analysis":"npath_zin","sweep":{"f_stop_hz":1e999})json")),
            bad_params("13", "gen sweep requires a finite f_stop_hz"));
  EXPECT_EQ(reply(gen(R"json("zbb_r":-1e999)json")),
            bad_params("13", "gen resistances (r_source, switch_ron, zbb_r) must be > 0"));
  EXPECT_EQ(reply(R"json({"v":2,"id":1,"kind":"stats"})json"), kNothingRun);
}

TEST_F(ProtocolGoldenTest, AcNonFiniteGridIsBadParams) {
  // An infinite f_stop_hz passes the order check and would fail mid-solve
  // ("singular matrix at pivot 2").
  EXPECT_EQ(reply(R"json({"v":2,"id":14,"kind":"ac","params":{)json"
                  R"json("netlist":"V1 in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n",)json"
                  R"json("ac":{"f_start_hz":1e3,"f_stop_hz":1e999,)json"
                  R"json("points":3,"probe":"out"}}})json"),
            bad_params("14", "ac requires a finite f_stop_hz"));
  EXPECT_EQ(reply(R"json({"v":2,"id":1,"kind":"stats"})json"), kNothingRun);
}

TEST_F(ProtocolGoldenTest, NonFiniteMetricFailsAndIsNotCached) {
  // A transconductance of 1e306 S puts the voltage gain (~1e309) past the
  // largest double, so the value is not finite: the request fails and
  // nothing is stored, so the repeat fails too instead of answering a
  // cached null.
  const std::string line =
      R"json({"v":2,"id":10,"kind":"mixer_metric","params":{"metric":"gain_db",)json"
      R"json("config":{"mode":"active","tca_gm":1e306}}})json";
  const std::string failed =
      R"json({"v":2,"id":10,"ok":false,"error":{"code":"exec_failed",)json"
      R"json("message":"mixer_metric: value is not finite"}})json";
  EXPECT_EQ(reply(line), failed);
  EXPECT_EQ(reply(line), failed);
  EXPECT_EQ(
      reply(R"json({"v":2,"id":1,"kind":"stats"})json"),
      R"json({"v":2,"id":1,"ok":true,"result":{"jobs":{"submitted":2,"cache_hits":0,)json"
      R"json("deduped":0,"executed":2,"failed":2},"cache":{"hits":0,"misses":2,)json"
      R"json("evictions":0,"stores":0,"disk_hits":0,"disk_stores":0,"disk_corrupt":0,)json"
      R"json("entries":0},"canonical_epoch":5}})json");
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
