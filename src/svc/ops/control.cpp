// Control ops: ping, stats, cancel. Answered in place by the server loop
// (never scheduled), so they carry no analysis handlers — registering them
// here still gives them a single source of truth for kind-name validity.
#include <cmath>

#include "obs/json_writer.hpp"
#include "svc/json_parse.hpp"
#include "svc/op_registry.hpp"
#include "svc/ops/registrations.hpp"

namespace rfmix::svc {

namespace {

namespace json = obs::json;

std::string serialize_target(const JsonValue& v) {
  if (v.is_number()) {
    if (!std::isfinite(v.as_number()))
      throw RequestError(ErrorCode::kBadParams,
                         "cancel target must be a finite number or a string");
    return json::number(v.as_number());
  }
  if (v.is_string()) return json::quoted(v.as_string());
  throw RequestError(ErrorCode::kBadParams,
                     "cancel target must be a number or a string");
}

}  // namespace

void register_control_ops(OpRegistry& r) {
  OpSpec ping;
  ping.name = "ping";
  r.register_op(std::move(ping));

  OpSpec stats;
  stats.name = "stats";
  r.register_op(std::move(stats));

  OpSpec cancel;
  cancel.name = "cancel";
  cancel.parse_control = [](const JsonValue& params, ParsedRequest& out) {
    const JsonValue* target = params.find("target");
    if (target == nullptr)
      throw RequestError(ErrorCode::kBadParams,
                         "cancel requires params.target (the id to cancel)");
    out.cancel_target = serialize_target(*target);
  };
  r.register_op(std::move(cancel));
}

}  // namespace rfmix::svc
