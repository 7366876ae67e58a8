// Declarative op registry: one table from op name to everything the
// service layer needs to know about it.
//
// Before this existed, every new rfmixd op re-implemented its own slice of
// request handling by hand across request.cpp — parameter parsing,
// strictness rules, canonical cache records and execution — and the per-op
// if/else chains grew with each PR. An OpSpec packages those per-op
// concerns declaratively:
//
//   name  ->  field schema {type, required, range}  ->  handlers
//
// and parse_request / request_canonical / execute_request in request.cpp
// become thin, op-agnostic dispatch over the registry. The router forwards
// the client's own bytes (forward_request_line), so no op serializes its
// parameters back to JSON.
//
// Error-message compatibility is part of the contract: schemas reproduce
// the exact bytes the hand-rolled parsers emitted ("missing required field
// 'netlist'", "unknown ac field 'x'", "field 'points' must be an integer
// in int range", ...), and tests/svc/test_protocol_golden.cpp pins them.
//
// See docs/service.md ("The op registry").
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "svc/request.hpp"

namespace rfmix::svc {

class JsonValue;
class CanonicalWriter;

enum class FieldType {
  kNumber,  // JSON number -> double
  kInt,     // JSON number, validated as an integer in int range
  kString,
  kBool,
  kObject,  // nested object, handed to bind_object (sub-schema or custom)
};

/// One declared parameter field. `min > max` (the default) means "no range
/// check"; ranges are inclusive and apply to kNumber/kInt.
struct FieldSpec {
  std::string name;
  FieldType type = FieldType::kNumber;
  bool required = false;
  std::string missing_message;  // empty -> "missing required field '<name>'"
  double min = 1.0;
  double max = 0.0;
  std::function<void(double, Request&)> bind_number;  // kNumber / kInt
  std::function<void(const std::string&, Request&)> bind_string;
  std::function<void(bool, Request&)> bind_bool;
  std::function<void(const JsonValue&, Request&)> bind_object;
};

/// An ordered field schema plus the label used in unknown-field errors
/// ("unknown <label> field 'x'"). Fields apply in declaration order (which
/// fixes error precedence); the unknown-field scan, when requested, runs
/// last.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::string label) : label_(std::move(label)) {}

  Schema& number(std::string name, std::function<void(double, Request&)> bind);
  Schema& integer(std::string name, std::function<void(double, Request&)> bind);
  Schema& string(std::string name, std::function<void(const std::string&, Request&)> bind);
  Schema& boolean(std::string name, std::function<void(bool, Request&)> bind);
  Schema& object(std::string name, std::function<void(const JsonValue&, Request&)> bind);

  /// Mark the most recently added field required; a custom message
  /// overrides the default "missing required field '<name>'".
  Schema& required(std::string missing_message = "");
  /// Inclusive range check on the most recently added kNumber/kInt field.
  Schema& range(double min, double max);

  /// Apply `obj` onto `req`. `strict` additionally rejects keys not in the
  /// schema ("unknown <label> field 'x'"). Throws std::invalid_argument /
  /// whatever the JSON accessors throw; the caller maps to kBadParams.
  void apply(const JsonValue& obj, Request& req, bool strict) const;

  bool empty() const { return fields_.empty(); }
  const std::vector<FieldSpec>& fields() const { return fields_; }
  const std::string& label() const { return label_; }

 private:
  std::string label_;
  std::vector<FieldSpec> fields_;
};

/// Everything the service layer knows about one op.
struct OpSpec {
  std::string name;
  bool analysis = false;  // scheduled through the cache/job layer (vs
                          // answered in place: ping, stats, cancel)
  RequestKind kind = RequestKind::kOp;  // meaningful when analysis

  Schema params;               // parameter schema (may be empty)
  bool strict_params = false;  // reject unknown top-level params keys
  /// Cross-field validation / normalization after the schema applied.
  std::function<void(Request&)> finish;

  /// Append this op's canonical cache-key records (analysis ops).
  std::function<void(CanonicalWriter&, const Request&)> canonical;
  /// Execute and serialize the result payload (analysis ops).
  std::function<std::string(const Request&)> execute;

  /// Control-op parameter parsing (cancel). Applied to the params object.
  std::function<void(const JsonValue& params, ParsedRequest&)> parse_control;
};

/// The process-wide op table. Built-ins register in constructor order —
/// which is also the order the "unknown request kind" suggestion lists
/// them in, so registration order is wire-visible and append-only.
class OpRegistry {
 public:
  static OpRegistry& instance();

  /// Append an op. Throws std::logic_error on duplicate names.
  void register_op(OpSpec spec);

  const OpSpec* find(std::string_view name) const;
  /// Lookup by request kind (analysis ops only; nullptr otherwise).
  const OpSpec* find(RequestKind kind) const;
  const std::vector<OpSpec>& ops() const { return ops_; }

  /// Human-readable kind list for the unknown-kind error, in registration
  /// order ("a, b, ..., or z").
  std::string kinds_list() const;

 private:
  OpRegistry();
  std::vector<OpSpec> ops_;
};

}  // namespace rfmix::svc
