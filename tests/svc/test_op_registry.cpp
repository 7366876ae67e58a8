// The declarative op registry: table invariants (lookup, the kind list,
// duplicate rejection) and Schema behavior (order, required,
// ranges, int validation, strict unknown scan) — the machinery every op's
// parsing now rides on. Exact error bytes are pinned here because they are
// protocol surface (test_protocol_golden.cpp pins them end-to-end).
#include <gtest/gtest.h>

#include <stdexcept>

#include "svc/json_parse.hpp"
#include "svc/op_registry.hpp"

namespace rfmix::svc {
namespace {

TEST(OpRegistryTest, FindsBuiltinsByNameAndKind) {
  const OpRegistry& r = OpRegistry::instance();
  for (const char* name :
       {"ping", "stats", "cancel", "op", "ac", "mixer_metric", "npath_zin", "gen"})
    EXPECT_NE(r.find(name), nullptr) << name;
  EXPECT_EQ(r.find("explode"), nullptr);

  EXPECT_EQ(r.find(RequestKind::kOp)->name, "op");
  EXPECT_EQ(r.find(RequestKind::kAc)->name, "ac");
  EXPECT_EQ(r.find(RequestKind::kMixerMetric)->name, "mixer_metric");
  EXPECT_EQ(r.find(RequestKind::kNpathZin)->name, "npath_zin");
  EXPECT_EQ(r.find(RequestKind::kGen)->name, "gen");
}

TEST(OpRegistryTest, KindsListFollowsRegistrationOrder) {
  const OpRegistry& r = OpRegistry::instance();
  EXPECT_EQ(r.kinds_list(),
            "ping, stats, cancel, op, ac, mixer_metric, npath_zin, or gen");
}

TEST(OpRegistryTest, AnalysisFlagsMatchDispatch) {
  const OpRegistry& r = OpRegistry::instance();
  for (const char* name : {"op", "ac", "mixer_metric", "npath_zin", "gen"}) {
    const OpSpec* spec = r.find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_TRUE(spec->analysis) << name;
    EXPECT_TRUE(bool(spec->canonical)) << name;
    EXPECT_TRUE(bool(spec->execute)) << name;
  }
  for (const char* name : {"ping", "stats", "cancel"})
    EXPECT_FALSE(r.find(name)->analysis) << name;
}

Request apply(const Schema& s, const std::string& json, bool strict) {
  Request req;
  s.apply(json_parse(json), req, strict);
  return req;
}

Schema test_schema(double* num, int* count, std::string* str) {
  Schema s("test");
  s.number("x", [num](double v, Request&) { *num = v; });
  s.integer("n", [count](double v, Request&) { *count = int(v); });
  s.range(1, 10);
  s.string("name", [str](const std::string& v, Request&) { *str = v; });
  s.required();
  return s;
}

TEST(SchemaTest, AppliesFieldsAndDefaults) {
  double num = -1.0;
  int count = -1;
  std::string str;
  const Schema s = test_schema(&num, &count, &str);
  apply(s, R"({"x":2.5,"n":3,"name":"abc"})", /*strict=*/true);
  EXPECT_EQ(num, 2.5);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(str, "abc");

  // Missing optional fields keep their prior values.
  num = -1.0;
  count = -1;
  apply(s, R"({"name":"only"})", /*strict=*/true);
  EXPECT_EQ(num, -1.0);
  EXPECT_EQ(count, -1);
}

TEST(SchemaTest, ErrorBytesArePinned) {
  double num;
  int count;
  std::string str;
  const Schema s = test_schema(&num, &count, &str);
  const auto message = [&](const std::string& json, bool strict) {
    try {
      apply(s, json, strict);
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string("(no throw)");
  };
  EXPECT_EQ(message(R"({})", false), "missing required field 'name'");
  EXPECT_EQ(message(R"({"name":"a","n":2.5})", false),
            "field 'n' must be an integer in int range");
  EXPECT_EQ(message(R"({"name":"a","n":1e19})", false),
            "field 'n' must be an integer in int range");
  EXPECT_EQ(message(R"({"name":"a","n":11})", false),
            "field 'n' must be in [1, 10]");
  EXPECT_EQ(message(R"({"name":"a","zzz":1})", true),
            "unknown test field 'zzz'");
  // Lenient mode ignores unknowns (the lenient top level of op, ac and
  // mixer_metric params).
  EXPECT_EQ(message(R"({"name":"a","zzz":1})", false), "(no throw)");
}

TEST(SchemaTest, CustomMissingMessage) {
  Schema s("outer");
  s.object("ac", [](const JsonValue&, Request&) {});
  s.required("ac request requires an 'ac' object");
  try {
    apply(s, R"({})", false);
    FAIL() << "expected throw";
  } catch (const std::exception& e) {
    EXPECT_STREQ(e.what(), "ac request requires an 'ac' object");
  }
}

TEST(OpRegistryTest, DuplicateRegistrationThrows) {
  OpRegistry& r = OpRegistry::instance();
  OpSpec dup;
  dup.name = "ping";
  EXPECT_THROW(r.register_op(std::move(dup)), std::logic_error);
}

}  // namespace
}  // namespace rfmix::svc
