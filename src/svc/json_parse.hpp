// Minimal JSON parser for the rfmixd request protocol.
//
// The repo's obs layer writes JSON but never reads it; the service layer
// needs to accept newline-delimited JSON requests, so this adds the
// missing half. Scope is deliberately small: full RFC 8259 value grammar,
// UTF-8 passed through verbatim, \uXXXX escapes decoded (surrogate pairs
// included), and objects keep insertion order so error messages can point
// at the offending key. Each parsed value also records its source byte
// range, which is how the router splices its ticket over a client's id
// without re-serializing the request. Parse failures throw JsonParseError
// with a byte offset into the input line.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rfmix::svc {

class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(std::size_t offset, const std::string& what)
      : std::runtime_error("json offset " + std::to_string(offset) + ": " + what),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const JsonValue* find(std::string_view key) const;

  /// Byte range [source_begin, source_end) of this value in the text
  /// json_parse read; empty for values built by the factories below.
  std::size_t source_begin() const { return begin_; }
  std::size_t source_end() const { return end_; }

  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::vector<std::pair<std::string, JsonValue>> members);

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// Parse one complete JSON document; trailing non-whitespace is an error.
JsonValue json_parse(std::string_view text);

}  // namespace rfmix::svc
