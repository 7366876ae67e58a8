#include "svc/op_registry.hpp"

#include <climits>
#include <cmath>
#include <stdexcept>

#include "svc/json_parse.hpp"
#include "svc/ops/registrations.hpp"

namespace rfmix::svc {

Schema& Schema::number(std::string name, std::function<void(double, Request&)> bind) {
  FieldSpec f;
  f.name = std::move(name);
  f.type = FieldType::kNumber;
  f.bind_number = std::move(bind);
  fields_.push_back(std::move(f));
  return *this;
}

Schema& Schema::integer(std::string name, std::function<void(double, Request&)> bind) {
  FieldSpec f;
  f.name = std::move(name);
  f.type = FieldType::kInt;
  f.bind_number = std::move(bind);
  fields_.push_back(std::move(f));
  return *this;
}

Schema& Schema::string(std::string name,
                       std::function<void(const std::string&, Request&)> bind) {
  FieldSpec f;
  f.name = std::move(name);
  f.type = FieldType::kString;
  f.bind_string = std::move(bind);
  fields_.push_back(std::move(f));
  return *this;
}

Schema& Schema::boolean(std::string name, std::function<void(bool, Request&)> bind) {
  FieldSpec f;
  f.name = std::move(name);
  f.type = FieldType::kBool;
  f.bind_bool = std::move(bind);
  fields_.push_back(std::move(f));
  return *this;
}

Schema& Schema::object(std::string name,
                       std::function<void(const JsonValue&, Request&)> bind) {
  FieldSpec f;
  f.name = std::move(name);
  f.type = FieldType::kObject;
  f.bind_object = std::move(bind);
  fields_.push_back(std::move(f));
  return *this;
}

Schema& Schema::required(std::string missing_message) {
  fields_.back().required = true;
  fields_.back().missing_message = std::move(missing_message);
  return *this;
}

Schema& Schema::range(double min, double max) {
  fields_.back().min = min;
  fields_.back().max = max;
  return *this;
}

void Schema::apply(const JsonValue& obj, Request& req, bool strict) const {
  for (const FieldSpec& f : fields_) {
    const JsonValue* v = obj.find(f.name);
    if (v == nullptr) {
      if (f.required)
        throw std::invalid_argument(f.missing_message.empty()
                                        ? "missing required field '" + f.name + "'"
                                        : f.missing_message);
      continue;
    }
    switch (f.type) {
      case FieldType::kNumber: {
        const double d = v->as_number();
        if (f.min <= f.max && (!(d >= f.min) || !(d <= f.max)))
          throw std::invalid_argument("field '" + f.name + "' must be in [" +
                                      std::to_string(f.min) + ", " +
                                      std::to_string(f.max) + "]");
        f.bind_number(d, req);
        break;
      }
      case FieldType::kInt: {
        // Client ints arrive as JSON numbers; casting an out-of-range or
        // non-finite double to int is UB, so validate before converting.
        const double d = v->as_number();
        if (!std::isfinite(d) || d != std::floor(d) ||
            d < static_cast<double>(INT_MIN) || d > static_cast<double>(INT_MAX))
          throw std::invalid_argument("field '" + f.name +
                                      "' must be an integer in int range");
        if (f.min <= f.max && (d < f.min || d > f.max))
          throw std::invalid_argument(
              "field '" + f.name + "' must be in [" +
              std::to_string(static_cast<long long>(f.min)) + ", " +
              std::to_string(static_cast<long long>(f.max)) + "]");
        f.bind_number(d, req);
        break;
      }
      case FieldType::kString:
        f.bind_string(v->as_string(), req);
        break;
      case FieldType::kBool:
        f.bind_bool(v->as_bool(), req);
        break;
      case FieldType::kObject:
        f.bind_object(*v, req);
        break;
    }
  }
  if (!strict) return;
  for (const auto& [key, value] : obj.as_object()) {
    (void)value;
    bool known = false;
    for (const FieldSpec& f : fields_) {
      if (f.name == key) {
        known = true;
        break;
      }
    }
    if (!known)
      throw std::invalid_argument("unknown " + label_ + " field '" + key + "'");
  }
}

OpRegistry& OpRegistry::instance() {
  static OpRegistry registry;
  return registry;
}

OpRegistry::OpRegistry() {
  // Canonical registration order — wire-visible via kinds_list, append
  // only.
  register_control_ops(*this);
  register_netlist_ops(*this);
  register_mixer_metric_op(*this);
  register_npath_zin_op(*this);
  register_gen_op(*this);
}

void OpRegistry::register_op(OpSpec spec) {
  if (find(spec.name) != nullptr)
    throw std::logic_error("duplicate op registration: " + spec.name);
  ops_.push_back(std::move(spec));
}

const OpSpec* OpRegistry::find(std::string_view name) const {
  for (const OpSpec& op : ops_)
    if (op.name == name) return &op;
  return nullptr;
}

const OpSpec* OpRegistry::find(RequestKind kind) const {
  for (const OpSpec& op : ops_)
    if (op.analysis && op.kind == kind) return &op;
  return nullptr;
}

std::string OpRegistry::kinds_list() const {
  std::string out;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (i > 0) out += ", ";
    if (i + 1 == ops_.size()) out += "or ";
    out += ops_[i].name;
  }
  return out;
}

}  // namespace rfmix::svc
