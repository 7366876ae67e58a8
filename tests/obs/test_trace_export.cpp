// Trace recorder contract: enable/disable gating, per-thread event
// ordering, the nesting invariant (same-tid intervals are disjoint or
// strictly nested), and well-formed Chrome trace-event JSON. The JSON
// checks use a tiny recursive-descent validator instead of a parser
// dependency — the exporter's output is small and fully specified.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"

namespace rfmix::obs {
namespace {

// Minimal structural JSON validator: accepts exactly the RFC 8259 grammar
// for objects/arrays/strings/numbers/true/false/null. Returns true iff the
// whole input is one valid JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Fresh recorder state for every test; recording stays off on exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::disable();
    trace::clear();
  }
  void TearDown() override {
    trace::disable();
    trace::clear();
  }
};

TEST_F(TraceTest, DisabledRecorderCapturesNothing) {
  {
    RFMIX_OBS_TRACE_SCOPE("trace.test.off");
  }
  EXPECT_TRUE(trace::events().empty());
}

TEST_F(TraceTest, ExportWithoutEventsIsValidEmptyTrace) {
  std::ostringstream os;
  trace::export_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

#if RFMIX_OBS_ENABLED

TEST_F(TraceTest, EnableCapturesCompleteEvents) {
  trace::enable();
  EXPECT_TRUE(trace::enabled());
  {
    RFMIX_OBS_TRACE_SCOPE("trace.test.outer");
    { RFMIX_OBS_TRACE_SCOPE("trace.test.inner"); }
  }
  trace::disable();
  const std::vector<TraceEvent> ev = trace::events();
  ASSERT_EQ(ev.size(), 2u);
  // Same thread, sorted by start time: outer starts first.
  EXPECT_EQ(ev[0].tid, ev[1].tid);
  EXPECT_EQ(ev[0].name, "trace.test.outer");
  EXPECT_EQ(ev[1].name, "trace.test.inner");
}

TEST_F(TraceTest, ScopesOpenedWhileDisabledDoNotRecord) {
  {
    RFMIX_OBS_TRACE_SCOPE("trace.test.pre");  // armed? no — recording off
    trace::enable();
  }
  // The scope above entered before enable(), so it must not have recorded.
  EXPECT_TRUE(trace::events().empty());
  trace::disable();
}

TEST_F(TraceTest, ClearDropsEvents) {
  trace::enable();
  { RFMIX_OBS_TRACE_SCOPE("trace.test.cleared"); }
  trace::disable();
  ASSERT_FALSE(trace::events().empty());
  trace::clear();
  EXPECT_TRUE(trace::events().empty());
}

// Per-tid interval invariant: RAII scopes on one thread unwind LIFO, so two
// events with the same tid are either disjoint or one strictly contains the
// other. Violations would mean tid assignment is mixing threads together.
TEST_F(TraceTest, SameThreadEventsNestOrAreDisjoint) {
  trace::enable();
  runtime::ScopedPool pool(4);
  runtime::parallel_for(0, 64, [](std::size_t) {
    RFMIX_OBS_TRACE_SCOPE("trace.test.task");
    { RFMIX_OBS_TRACE_SCOPE("trace.test.subtask"); }
  });
  trace::disable();
  const std::vector<TraceEvent> ev = trace::events();
  ASSERT_EQ(ev.size(), 128u);
  for (std::size_t i = 0; i < ev.size(); ++i) {
    for (std::size_t j = i + 1; j < ev.size(); ++j) {
      if (ev[i].tid != ev[j].tid) continue;
      const std::uint64_t a0 = ev[i].ts_ns, a1 = ev[i].ts_ns + ev[i].dur_ns;
      const std::uint64_t b0 = ev[j].ts_ns, b1 = ev[j].ts_ns + ev[j].dur_ns;
      const bool disjoint = a1 <= b0 || b1 <= a0;
      const bool a_contains_b = a0 <= b0 && b1 <= a1;
      const bool b_contains_a = b0 <= a0 && a1 <= b1;
      EXPECT_TRUE(disjoint || a_contains_b || b_contains_a)
          << "tid " << ev[i].tid << ": [" << a0 << "," << a1 << ") vs ["
          << b0 << "," << b1 << ")";
    }
  }
}

TEST_F(TraceTest, EventsSortedByTidThenTime) {
  trace::enable();
  for (int i = 0; i < 5; ++i) {
    RFMIX_OBS_TRACE_SCOPE("trace.test.seq");
  }
  trace::disable();
  const std::vector<TraceEvent> ev = trace::events();
  ASSERT_EQ(ev.size(), 5u);
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_TRUE(ev[i - 1].tid < ev[i].tid ||
                (ev[i - 1].tid == ev[i].tid && ev[i - 1].ts_ns <= ev[i].ts_ns));
  }
}

TEST_F(TraceTest, ExportedJsonIsWellFormedAndCarriesEvents) {
  trace::enable();
  { RFMIX_OBS_TRACE_SCOPE("trace.test.json \"quoted\\name\""); }
  trace::disable();
  std::ostringstream os;
  trace::export_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\\name\\\""), std::string::npos);
}

#else  // !RFMIX_OBS_ENABLED

TEST_F(TraceTest, DisabledBuildRecordsNothingEvenWhenEnabled) {
  trace::enable();
  EXPECT_FALSE(trace::enabled());
  { RFMIX_OBS_TRACE_SCOPE("trace.test.compiled_out"); }
  trace::disable();
  EXPECT_TRUE(trace::events().empty());
  std::ostringstream os;
  trace::export_json(os);
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

#endif  // RFMIX_OBS_ENABLED

}  // namespace
}  // namespace rfmix::obs
