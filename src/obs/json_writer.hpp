// Minimal JSON serialization helpers shared by the trace exporter and the
// run-report writer. Only what those two need: string escaping, locale-free
// number formatting, and an ordered tree value for report documents.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rfmix::obs::json {

/// `s` escaped and wrapped in double quotes, per RFC 8259.
std::string quoted(std::string_view s);

/// Round-trip decimal for a double: printf's "%.15g" spelling when it reads
/// back as exactly `v`, else "%.17g" (which always does). NaN/Inf (not
/// representable in JSON) serialize as null.
std::string number(double v);
std::string number(std::uint64_t v);

/// Room write_number needs.
inline constexpr std::size_t kMaxNumberChars = 32;

/// Writes number(v)'s bytes at `out`, which has room for kMaxNumberChars,
/// and returns one past the last.
char* write_number(char* out, double v);

/// Ordered JSON value: objects keep insertion order so reports serialize
/// the way they were built (and diff cleanly).
class Value {
 public:
  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kNumber), num_(d) {}
  Value(std::uint64_t u) : kind_(Kind::kUint), uint_(u) {}
  Value(int i) : kind_(Kind::kUint), uint_(static_cast<std::uint64_t>(i < 0 ? 0 : i)) {
    if (i < 0) {
      kind_ = Kind::kNumber;
      num_ = i;
    }
  }
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Value(const char* s) : kind_(Kind::kString), str_(s) {}

  static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }

  bool is_object() const { return kind_ == Kind::kObject; }

  /// Object member access, creating the key on first use (insertion order
  /// is preserved). Only valid on objects.
  Value& operator[](std::string_view key);

  /// Append to an array. Only valid on arrays.
  Value& append(Value v);

  /// Serialize with 2-space indentation.
  void write(std::ostream& os, int indent = 0) const;

 private:
  enum class Kind { kNull, kBool, kNumber, kUint, kString, kObject, kArray };

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t uint_ = 0;
  std::string str_;
  std::vector<std::pair<std::string, std::unique_ptr<Value>>> members_;
  std::vector<std::unique_ptr<Value>> elements_;
};

}  // namespace rfmix::obs::json
