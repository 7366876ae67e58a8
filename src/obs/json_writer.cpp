#include "obs/json_writer.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <system_error>

namespace rfmix::obs::json {

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
  return out;
}

char* write_number(char* out, double v) {
  if (!std::isfinite(v)) return std::copy_n("null", 4, out);
  // to_chars with a precision is specified as printf's %.*g in the C
  // locale, so these are the bytes of "%.15g" / "%.17g". %.17g round-trips
  // any double; keep the shorter %.15g form when it reads back exactly so
  // reports stay human-readable.
  char* const last = out + kMaxNumberChars;
  char* end = std::to_chars(out, last, v, std::chars_format::general, 15).ptr;
  double back = 0.0;
  const std::from_chars_result r = std::from_chars(out, end, back);
  if (r.ec != std::errc{} || back != v)
    end = std::to_chars(out, last, v, std::chars_format::general, 17).ptr;
  return end;
}

std::string number(double v) {
  char buf[kMaxNumberChars];
  return std::string(buf, write_number(buf, v));
}

std::string number(std::uint64_t v) { return std::to_string(v); }

Value& Value::operator[](std::string_view key) {
  if (kind_ != Kind::kObject)
    throw std::logic_error("json::Value: operator[] on non-object");
  for (auto& [k, v] : members_)
    if (k == key) return *v;
  members_.emplace_back(std::string(key), std::make_unique<Value>());
  return *members_.back().second;
}

Value& Value::append(Value v) {
  if (kind_ != Kind::kArray) throw std::logic_error("json::Value: append on non-array");
  elements_.push_back(std::make_unique<Value>(std::move(v)));
  return *elements_.back();
}

void Value::write(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (kind_) {
    case Kind::kNull:
      os << "null";
      break;
    case Kind::kBool:
      os << (bool_ ? "true" : "false");
      break;
    case Kind::kNumber:
      os << number(num_);
      break;
    case Kind::kUint:
      os << number(uint_);
      break;
    case Kind::kString:
      os << quoted(str_);
      break;
    case Kind::kObject: {
      if (members_.empty()) {
        os << "{}";
        break;
      }
      os << "{\n";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        os << pad_in << quoted(members_[i].first) << ": ";
        members_[i].second->write(os, indent + 1);
        if (i + 1 < members_.size()) os << ",";
        os << "\n";
      }
      os << pad << "}";
      break;
    }
    case Kind::kArray: {
      if (elements_.empty()) {
        os << "[]";
        break;
      }
      os << "[\n";
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        os << pad_in;
        elements_[i]->write(os, indent + 1);
        if (i + 1 < elements_.size()) os << ",";
        os << "\n";
      }
      os << pad << "]";
      break;
    }
  }
}

}  // namespace rfmix::obs::json
