// Protocol framing + op-agnostic dispatch. Everything kind-specific —
// parameter schemas, canonical cache records, execution — lives in the
// OpRegistry (src/svc/ops/*); this file only knows the envelope: id
// echoing and forwarding, the version check, the strict envelope scan, and
// how to hand the params object to whichever OpSpec the "kind" names.
#include "svc/request.hpp"

#include <climits>
#include <cmath>
#include <stdexcept>

#include "obs/json_writer.hpp"
#include "svc/canonical.hpp"
#include "svc/json_parse.hpp"
#include "svc/op_registry.hpp"

namespace rfmix::svc {

namespace {

namespace json = obs::json;

double number_field(const JsonValue& obj, std::string_view key, double fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  return v->as_number();
}

/// Re-serialize the request's "id" member (nullptr when absent) for
/// echoing: number, string, or "null". Anything else would make responses
/// unroutable, so it is an invalid_request, not a silent null.
std::string id_of(const JsonValue* id) {
  if (id == nullptr || id->is_null()) return "null";
  if (id->is_number()) {
    if (!std::isfinite(id->as_number()))
      throw RequestError(ErrorCode::kInvalidRequest,
                         "request id must be a finite number or a string");
    return json::number(id->as_number());
  }
  if (id->is_string()) return json::quoted(id->as_string());
  throw RequestError(ErrorCode::kInvalidRequest,
                     "request id must be a number or a string");
}

/// Apply an op's schema + cross-field checks onto a fresh Request, mapping
/// any schema throw to kBadParams.
Request build_analysis_request(const OpSpec& spec, const JsonValue& params) {
  Request req;
  req.kind = spec.kind;
  try {
    spec.params.apply(params, req, spec.strict_params);
    if (spec.finish) spec.finish(req);
  } catch (const RequestError&) {
    throw;
  } catch (const std::exception& e) {
    throw RequestError(ErrorCode::kBadParams, e.what());
  }
  return req;
}

const JsonValue kEmptyObject = JsonValue::object({});

}  // namespace

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kInvalidRequest: return "invalid_request";
    case ErrorCode::kUnsupportedVersion: return "unsupported_version";
    case ErrorCode::kUnknownKind: return "unknown_kind";
    case ErrorCode::kBadParams: return "bad_params";
    case ErrorCode::kExecFailed: return "exec_failed";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kUnavailable: return "unavailable";
  }
  return "internal_error";
}

bool is_analysis_kind(std::string_view kind) {
  const OpSpec* op = OpRegistry::instance().find(kind);
  return op != nullptr && op->analysis;
}

ParsedRequest parse_request(const JsonValue& doc) {
  if (!doc.is_object())
    throw RequestError(ErrorCode::kInvalidRequest, "request must be a JSON object");

  ParsedRequest out;
  const JsonValue* id = doc.find("id");
  out.id_json = id_of(id);
  if (id != nullptr) {
    out.id_begin = id->source_begin();
    out.id_end = id->source_end();
  }

  // One envelope version: a request without "v", or with any other value,
  // is rejected rather than guessed at.
  const JsonValue* version = doc.find("v");
  if (version == nullptr || !version->is_number() || version->as_number() != 2.0)
    throw RequestError(ErrorCode::kUnsupportedVersion,
                       "unsupported protocol version (this server speaks v2)");

  const JsonValue* kind = doc.find("kind");
  if (kind == nullptr)
    throw RequestError(ErrorCode::kInvalidRequest, "missing required field 'kind'");
  if (!kind->is_string())
    throw RequestError(ErrorCode::kInvalidRequest, "field 'kind' must be a string");
  out.kind = kind->as_string();

  const OpRegistry& registry = OpRegistry::instance();
  const OpSpec* spec = registry.find(out.kind);
  if (spec == nullptr)
    throw RequestError(ErrorCode::kUnknownKind,
                       "unknown request kind '" + out.kind + "' (expected " +
                           registry.kinds_list() + ")");

  try {
    const JsonValue* v = doc.find("priority");
    if (v != nullptr) {
      const double d = v->as_number();
      if (!std::isfinite(d) || d != std::floor(d) ||
          d < static_cast<double>(INT_MIN) || d > static_cast<double>(INT_MAX))
        throw std::invalid_argument("field 'priority' must be an integer in int range");
      out.priority = static_cast<int>(d);
    }
  } catch (const std::exception& e) {
    throw RequestError(ErrorCode::kBadParams, e.what());
  }

  // A strict envelope. Everything kind-specific lives under "params"; an
  // unknown envelope field is an error so typos fail loudly instead of
  // silently changing meaning.
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    if (key != "v" && key != "id" && key != "kind" && key != "priority" &&
        key != "timeout_ms" && key != "params")
      throw RequestError(ErrorCode::kInvalidRequest,
                         "unknown envelope field '" + key +
                             "' (v2 request parameters live under \"params\")");
  }
  const JsonValue* params = doc.find("params");
  if (params != nullptr && !params->is_object())
    throw RequestError(ErrorCode::kInvalidRequest, "field 'params' must be an object");
  const JsonValue& p = params != nullptr ? *params : kEmptyObject;

  try {
    out.timeout_ms = number_field(doc, "timeout_ms", 0.0);
    if (!std::isfinite(out.timeout_ms) || out.timeout_ms < 0.0)
      throw std::invalid_argument("field 'timeout_ms' must be a finite number >= 0");
  } catch (const std::exception& e) {
    throw RequestError(ErrorCode::kInvalidRequest, e.what());
  }

  if (spec->parse_control) {
    spec->parse_control(p, out);
    return out;
  }
  if (spec->analysis) out.request = build_analysis_request(*spec, p);
  return out;
}

std::string request_canonical(const Request& req) {
  const OpSpec* spec = OpRegistry::instance().find(req.kind);
  if (spec == nullptr || !spec->canonical)
    throw std::invalid_argument("unhandled request kind");
  CanonicalWriter w;
  append_version_record(w);
  spec->canonical(w, req);
  return w.str();
}

Hash128 request_key(const Request& req) { return hash128(request_canonical(req)); }

std::string forward_request_line(std::string_view line, const ParsedRequest& req,
                                 std::string_view id_json) {
  std::string out;
  if (req.id_end > req.id_begin) {
    out.append(line, 0, req.id_begin).append(id_json).append(line, req.id_end);
    return out;
  }
  // No id: the ticket becomes the first member.
  const std::size_t body = line.find('{') + 1;
  out.append(line, 0, body).append("\"id\":").append(id_json).append(",");
  out.append(line, body);
  return out;
}

std::string execute_request(const Request& req) {
  const OpSpec* spec = OpRegistry::instance().find(req.kind);
  if (spec == nullptr || !spec->execute)
    throw std::invalid_argument("unhandled request kind");
  return spec->execute(req);
}

}  // namespace rfmix::svc
