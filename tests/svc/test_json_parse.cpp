// JSON parser tests for the rfmixd request protocol.
#include "svc/json_parse.hpp"

#include <gtest/gtest.h>

#include <string>

namespace rfmix::svc {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_TRUE(json_parse("true").as_bool());
  EXPECT_FALSE(json_parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json_parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json_parse("-0.5").as_number(), -0.5);
  EXPECT_DOUBLE_EQ(json_parse("2.4e9").as_number(), 2.4e9);
  EXPECT_DOUBLE_EQ(json_parse("1E-15").as_number(), 1e-15);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(json_parse("  \"ws\"  ").as_string(), "ws");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(json_parse(R"("a\"b\\c\/d")").as_string(), "a\"b\\c/d");
  EXPECT_EQ(json_parse(R"("\b\f\n\r\t")").as_string(), "\b\f\n\r\t");
  EXPECT_EQ(json_parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(json_parse(R"("\u00e9")").as_string(), "\xc3\xa9");          // é
  EXPECT_EQ(json_parse(R"("\u20ac")").as_string(), "\xe2\x82\xac");      // €
  EXPECT_EQ(json_parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, ArraysAndObjects) {
  const JsonValue v = json_parse(R"({"a":[1,2,3],"b":{"c":true},"d":null})");
  ASSERT_TRUE(v.is_object());
  const auto& arr = v.find("a")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr[1].as_number(), 2.0);
  EXPECT_TRUE(v.find("b")->find("c")->as_bool());
  EXPECT_TRUE(v.find("d")->is_null());
  EXPECT_EQ(v.find("nope"), nullptr);
  EXPECT_TRUE(json_parse("[]").as_array().empty());
  EXPECT_TRUE(json_parse("{}").as_object().empty());
}

TEST(JsonParse, ObjectKeepsInsertionOrder) {
  const JsonValue v = json_parse(R"({"z":1,"a":2,"m":3})");
  const auto& members = v.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonParse, RecordsSourceRanges) {
  // Every value knows the bytes it was parsed from, escapes and nesting
  // included; the surrounding whitespace is not part of a value.
  const std::string text = R"( {"id" : "a\"b", "n":[1, -2.5e3 ,null]} )";
  const JsonValue v = json_parse(text);
  const auto source = [&text](const JsonValue& x) {
    return text.substr(x.source_begin(), x.source_end() - x.source_begin());
  };
  EXPECT_EQ(source(v), R"({"id" : "a\"b", "n":[1, -2.5e3 ,null]})");
  EXPECT_EQ(source(*v.find("id")), R"("a\"b")");
  EXPECT_EQ(source(*v.find("n")), "[1, -2.5e3 ,null]");
  EXPECT_EQ(source(v.find("n")->as_array()[1]), "-2.5e3");
  EXPECT_EQ(source(v.find("n")->as_array()[2]), "null");
  EXPECT_EQ(JsonValue::number(1.0).source_end(), 0u);
}

TEST(JsonParse, Errors) {
  EXPECT_THROW(json_parse(""), JsonParseError);
  EXPECT_THROW(json_parse("{"), JsonParseError);
  EXPECT_THROW(json_parse("[1,"), JsonParseError);
  EXPECT_THROW(json_parse("tru"), JsonParseError);
  EXPECT_THROW(json_parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(json_parse("\"bad\\q\""), JsonParseError);
  EXPECT_THROW(json_parse("\"\\u12g4\""), JsonParseError);
  EXPECT_THROW(json_parse("\"\\ud800\""), JsonParseError);  // lone surrogate
  EXPECT_THROW(json_parse("01"), JsonParseError);           // leading zero
  EXPECT_THROW(json_parse("1. "), JsonParseError);
  EXPECT_THROW(json_parse("{} trailing"), JsonParseError);
  EXPECT_THROW(json_parse("{1:2}"), JsonParseError);
  EXPECT_THROW(json_parse("\"raw\ncontrol\""), JsonParseError);
  try {
    json_parse("[1, x]");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
    EXPECT_NE(std::string(e.what()).find("offset 4"), std::string::npos);
  }
}

TEST(JsonParse, KindMismatchThrows) {
  const JsonValue v = json_parse("3");
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.as_array(), std::runtime_error);
  EXPECT_THROW(v.as_object(), std::runtime_error);
  EXPECT_THROW(v.as_bool(), std::runtime_error);
  EXPECT_EQ(v.find("k"), nullptr);  // find on non-object is a safe no
}

TEST(JsonParse, DeepNestingRejected) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_THROW(json_parse(deep), JsonParseError);
}

}  // namespace
}  // namespace rfmix::svc
