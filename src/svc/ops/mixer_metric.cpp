// The mixer_metric op: core::evaluate_metric over a MixerConfig. Also
// home to the MixerConfig wire <-> struct plumbing: every config field is
// spelled once here, in one table that both the strict parse
// (apply_mixer_config) and the canonical cache record read.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/metrics.hpp"
#include "obs/json_writer.hpp"
#include "svc/canonical.hpp"
#include "svc/json_parse.hpp"
#include "svc/op_registry.hpp"
#include "svc/ops/registrations.hpp"

namespace rfmix::svc {

namespace {

namespace json = obs::json;

/// Every numeric MixerConfig field: its wire name (the `config` object
/// key) and member, in declaration order, which is also the order of the
/// canonical `mixerconfig` record. The record is append-only: new fields
/// go at the end; renaming or reordering requires a kCanonicalEpoch bump.
struct ConfigField {
  std::string_view name;
  double core::MixerConfig::*member;
};

constexpr ConfigField kConfigFields[] = {
    {"temperature_k", &core::MixerConfig::temperature_k},
    {"vdd", &core::MixerConfig::vdd},
    {"f_lo_hz", &core::MixerConfig::f_lo_hz},
    {"lo_amplitude", &core::MixerConfig::lo_amplitude},
    {"lo_common_mode", &core::MixerConfig::lo_common_mode},
    {"lo_rise_fraction", &core::MixerConfig::lo_rise_fraction},
    {"lo_phase_frac", &core::MixerConfig::lo_phase_frac},
    {"rf_series_r", &core::MixerConfig::rf_series_r},
    {"tca_gm", &core::MixerConfig::tca_gm},
    {"tca_rout", &core::MixerConfig::tca_rout},
    {"tca_cpar", &core::MixerConfig::tca_cpar},
    {"tca_bias_ma", &core::MixerConfig::tca_bias_ma},
    {"tca_nf_gamma", &core::MixerConfig::tca_nf_gamma},
    {"tca_flicker_corner_hz", &core::MixerConfig::tca_flicker_corner_hz},
    {"quad_w", &core::MixerConfig::quad_w},
    {"quad_ron", &core::MixerConfig::quad_ron},
    {"quad_l", &core::MixerConfig::quad_l},
    {"sw12_w", &core::MixerConfig::sw12_w},
    {"rdeg", &core::MixerConfig::rdeg},
    {"rdeg_ideal_extra", &core::MixerConfig::rdeg_ideal_extra},
    {"tg_resistance", &core::MixerConfig::tg_resistance},
    {"cc_load", &core::MixerConfig::cc_load},
    {"tia_rf", &core::MixerConfig::tia_rf},
    {"tia_cf", &core::MixerConfig::tia_cf},
    {"tia_ota_gm", &core::MixerConfig::tia_ota_gm},
    {"tia_ota_rout", &core::MixerConfig::tia_ota_rout},
    {"tia_ota_gbw_hz", &core::MixerConfig::tia_ota_gbw_hz},
    {"tia_bias_ma", &core::MixerConfig::tia_bias_ma},
    {"tia_input_noise_nv", &core::MixerConfig::tia_input_noise_nv},
    {"tia_flicker_corner_hz", &core::MixerConfig::tia_flicker_corner_hz},
    {"active_pair_noise_gm", &core::MixerConfig::active_pair_noise_gm},
    {"active_pair_flicker_corner_hz", &core::MixerConfig::active_pair_flicker_corner_hz},
    {"lo_buffer_ma", &core::MixerConfig::lo_buffer_ma},
    {"bias_overhead_ma", &core::MixerConfig::bias_overhead_ma},
    {"core_bias_ma", &core::MixerConfig::core_bias_ma},
};

void append_mixer_config(CanonicalWriter& w, const core::MixerConfig& c) {
  w.begin_record("mixerconfig");
  w.field("mode", std::string_view(frontend::mode_name(c.mode)));
  for (const ConfigField& f : kConfigFields) w.field(f.name, c.*f.member);
  w.end_record();
}

std::string execute_metric(const Request& req) {
  const double value = core::evaluate_metric(req.metric);
  // A non-finite value (an overflowing configuration, say) is a failed
  // execution, never a cached null.
  if (!std::isfinite(value)) throw std::runtime_error("mixer_metric: value is not finite");
  std::string out = "{\"analysis\":\"metric\",\"metric\":";
  out += json::quoted(core::metric_name(req.metric.metric));
  out += ",\"mode\":";
  out += json::quoted(frontend::mode_name(req.metric.config.mode));
  out += ",\"value\":";
  out += json::number(value);
  out.push_back('}');
  return out;
}

}  // namespace

void apply_mixer_config(const JsonValue& obj, core::MixerConfig& config) {
  for (const auto& [key, value] : obj.as_object()) {
    if (key == "mode") {
      const std::string& mode = value.as_string();
      if (mode == "active") {
        config.mode = core::MixerMode::kActive;
      } else if (mode == "passive") {
        config.mode = core::MixerMode::kPassive;
      } else {
        throw RequestError(ErrorCode::kBadParams, "unknown mixer mode '" + mode +
                                                      "' (expected active or passive)");
      }
      continue;
    }
    const double v = value.as_number();  // a type error outranks an unknown name
    const auto f = std::find_if(std::begin(kConfigFields), std::end(kConfigFields),
                                [&key](const ConfigField& c) { return c.name == key; });
    if (f == std::end(kConfigFields))
      throw RequestError(ErrorCode::kBadParams, "unknown config field '" + key + "'");
    config.*f->member = v;
  }
}

void register_mixer_metric_op(OpRegistry& r) {
  OpSpec m;
  m.name = "mixer_metric";
  m.analysis = true;
  m.kind = RequestKind::kMixerMetric;
  m.params.string("metric", [](const std::string& v, Request& req) {
    req.metric.metric = core::metric_from_name(v);
  });
  m.params.required();
  m.params.object("config", [](const JsonValue& v, Request& req) {
    apply_mixer_config(v, req.metric.config);
  });
  m.params.number("f_if_hz", [](double v, Request& req) { req.metric.f_if_hz = v; });
  m.params.number("f_rf_hz", [](double v, Request& req) { req.metric.f_rf_hz = v; });
  // Checked before keying, so a request that cannot run is bad_params, not
  // a failed job or a cached answer: every number finite, a positive
  // temperature, and f_rf_hz, which retunes the LO to f_rf_hz - f_if_hz
  // when nonzero, above f_if_hz.
  m.finish = [](Request& q) {
    for (const ConfigField& f : kConfigFields)
      if (!std::isfinite(q.metric.config.*f.member)) {
        std::string msg = "mixer_metric config field '";
        msg += f.name;
        throw std::invalid_argument(msg + "' must be finite");
      }
    if (!(q.metric.config.temperature_k > 0.0))
      throw std::invalid_argument("mixer_metric requires config temperature_k > 0");
    if (!std::isfinite(q.metric.f_if_hz) || !std::isfinite(q.metric.f_rf_hz))
      throw std::invalid_argument("mixer_metric requires finite f_if_hz and f_rf_hz");
    if (q.metric.f_rf_hz != 0.0 && !(q.metric.f_rf_hz > q.metric.f_if_hz))
      throw std::invalid_argument("mixer_metric requires f_rf_hz == 0 or f_rf_hz > f_if_hz");
  };
  m.canonical = [](CanonicalWriter& w, const Request& req) {
    append_mixer_config(w, req.metric.config);
    w.begin_record("analysis");
    w.field("kind", "metric");
    w.field("metric", core::metric_name(req.metric.metric));
    // IIP3 reads neither frequency, so every IIP3 request keys at the
    // defaults (the bytes a default-valued request always had).
    const core::MetricQuery& q =
        req.metric.metric == core::MixerMetric::kIip3Dbm ? core::MetricQuery{} : req.metric;
    w.field("f_if_hz", q.f_if_hz);
    w.field("f_rf_hz", q.f_rf_hz);
    w.end_record();
  };
  m.execute = execute_metric;
  r.register_op(std::move(m));
}

}  // namespace rfmix::svc
