// The mixer_metric op: core::evaluate_metric over a MixerConfig. Also
// home to the MixerConfig wire <-> struct plumbing (apply_mixer_config and
// its serialization twin): every config field is spelled once here, in
// canonical-record order, and the strict parse / serialize-everything pair
// is what keeps router replay and cache identity exact.
#include "core/metrics.hpp"
#include "obs/json_writer.hpp"
#include "svc/canonical.hpp"
#include "svc/json_parse.hpp"
#include "svc/op_registry.hpp"
#include "svc/ops/registrations.hpp"

namespace rfmix::svc {

namespace {

namespace json = obs::json;

bool set_config_number(core::MixerConfig& c, std::string_view key, double v) {
  if (key == "temperature_k") { c.temperature_k = v; return true; }
  if (key == "vdd") { c.vdd = v; return true; }
  if (key == "f_lo_hz") { c.f_lo_hz = v; return true; }
  if (key == "lo_amplitude") { c.lo_amplitude = v; return true; }
  if (key == "lo_common_mode") { c.lo_common_mode = v; return true; }
  if (key == "lo_rise_fraction") { c.lo_rise_fraction = v; return true; }
  if (key == "lo_phase_frac") { c.lo_phase_frac = v; return true; }
  if (key == "rf_series_r") { c.rf_series_r = v; return true; }
  if (key == "tca_gm") { c.tca_gm = v; return true; }
  if (key == "tca_rout") { c.tca_rout = v; return true; }
  if (key == "tca_cpar") { c.tca_cpar = v; return true; }
  if (key == "tca_bias_ma") { c.tca_bias_ma = v; return true; }
  if (key == "tca_nf_gamma") { c.tca_nf_gamma = v; return true; }
  if (key == "tca_flicker_corner_hz") { c.tca_flicker_corner_hz = v; return true; }
  if (key == "quad_w") { c.quad_w = v; return true; }
  if (key == "quad_ron") { c.quad_ron = v; return true; }
  if (key == "quad_l") { c.quad_l = v; return true; }
  if (key == "sw12_w") { c.sw12_w = v; return true; }
  if (key == "rdeg") { c.rdeg = v; return true; }
  if (key == "rdeg_ideal_extra") { c.rdeg_ideal_extra = v; return true; }
  if (key == "tg_resistance") { c.tg_resistance = v; return true; }
  if (key == "cc_load") { c.cc_load = v; return true; }
  if (key == "tia_rf") { c.tia_rf = v; return true; }
  if (key == "tia_cf") { c.tia_cf = v; return true; }
  if (key == "tia_ota_gm") { c.tia_ota_gm = v; return true; }
  if (key == "tia_ota_rout") { c.tia_ota_rout = v; return true; }
  if (key == "tia_ota_gbw_hz") { c.tia_ota_gbw_hz = v; return true; }
  if (key == "tia_bias_ma") { c.tia_bias_ma = v; return true; }
  if (key == "tia_input_noise_nv") { c.tia_input_noise_nv = v; return true; }
  if (key == "tia_flicker_corner_hz") { c.tia_flicker_corner_hz = v; return true; }
  if (key == "active_pair_noise_gm") { c.active_pair_noise_gm = v; return true; }
  if (key == "active_pair_flicker_corner_hz") {
    c.active_pair_flicker_corner_hz = v;
    return true;
  }
  if (key == "lo_buffer_ma") { c.lo_buffer_ma = v; return true; }
  if (key == "bias_overhead_ma") { c.bias_overhead_ma = v; return true; }
  if (key == "core_bias_ma") { c.core_bias_ma = v; return true; }
  return false;
}

/// Every MixerConfig field, in declaration order. The record is
/// append-only: new fields go at the end; renaming or reordering requires
/// a kCanonicalEpoch bump.
void append_mixer_config(CanonicalWriter& w, const core::MixerConfig& c) {
  w.begin_record("mixerconfig");
  w.field("mode", std::string_view(frontend::mode_name(c.mode)));
  w.field("temperature_k", c.temperature_k);
  w.field("vdd", c.vdd);
  w.field("f_lo_hz", c.f_lo_hz);
  w.field("lo_amplitude", c.lo_amplitude);
  w.field("lo_common_mode", c.lo_common_mode);
  w.field("lo_rise_fraction", c.lo_rise_fraction);
  w.field("lo_phase_frac", c.lo_phase_frac);
  w.field("rf_series_r", c.rf_series_r);
  w.field("tca_gm", c.tca_gm);
  w.field("tca_rout", c.tca_rout);
  w.field("tca_cpar", c.tca_cpar);
  w.field("tca_bias_ma", c.tca_bias_ma);
  w.field("tca_nf_gamma", c.tca_nf_gamma);
  w.field("tca_flicker_corner_hz", c.tca_flicker_corner_hz);
  w.field("quad_w", c.quad_w);
  w.field("quad_ron", c.quad_ron);
  w.field("quad_l", c.quad_l);
  w.field("sw12_w", c.sw12_w);
  w.field("rdeg", c.rdeg);
  w.field("rdeg_ideal_extra", c.rdeg_ideal_extra);
  w.field("tg_resistance", c.tg_resistance);
  w.field("cc_load", c.cc_load);
  w.field("tia_rf", c.tia_rf);
  w.field("tia_cf", c.tia_cf);
  w.field("tia_ota_gm", c.tia_ota_gm);
  w.field("tia_ota_rout", c.tia_ota_rout);
  w.field("tia_ota_gbw_hz", c.tia_ota_gbw_hz);
  w.field("tia_bias_ma", c.tia_bias_ma);
  w.field("tia_input_noise_nv", c.tia_input_noise_nv);
  w.field("tia_flicker_corner_hz", c.tia_flicker_corner_hz);
  w.field("active_pair_noise_gm", c.active_pair_noise_gm);
  w.field("active_pair_flicker_corner_hz", c.active_pair_flicker_corner_hz);
  w.field("lo_buffer_ma", c.lo_buffer_ma);
  w.field("bias_overhead_ma", c.bias_overhead_ma);
  w.field("core_bias_ma", c.core_bias_ma);
  w.end_record();
}

/// Every MixerConfig field, spelled exactly the way set_config_number
/// accepts it (the worker parses strictly: an unknown field is an error,
/// a missing one silently keeps its default — so serialize all of them).
void serialize_mixer_config(std::string& out, const core::MixerConfig& c) {
  out += "{\"mode\":";
  out += json::quoted(frontend::mode_name(c.mode));
  const auto field = [&out](std::string_view name, double v) {
    out += ",\"";
    out += name;
    out += "\":";
    out += json::number(v);
  };
  field("temperature_k", c.temperature_k);
  field("vdd", c.vdd);
  field("f_lo_hz", c.f_lo_hz);
  field("lo_amplitude", c.lo_amplitude);
  field("lo_common_mode", c.lo_common_mode);
  field("lo_rise_fraction", c.lo_rise_fraction);
  field("lo_phase_frac", c.lo_phase_frac);
  field("rf_series_r", c.rf_series_r);
  field("tca_gm", c.tca_gm);
  field("tca_rout", c.tca_rout);
  field("tca_cpar", c.tca_cpar);
  field("tca_bias_ma", c.tca_bias_ma);
  field("tca_nf_gamma", c.tca_nf_gamma);
  field("tca_flicker_corner_hz", c.tca_flicker_corner_hz);
  field("quad_w", c.quad_w);
  field("quad_ron", c.quad_ron);
  field("quad_l", c.quad_l);
  field("sw12_w", c.sw12_w);
  field("rdeg", c.rdeg);
  field("rdeg_ideal_extra", c.rdeg_ideal_extra);
  field("tg_resistance", c.tg_resistance);
  field("cc_load", c.cc_load);
  field("tia_rf", c.tia_rf);
  field("tia_cf", c.tia_cf);
  field("tia_ota_gm", c.tia_ota_gm);
  field("tia_ota_rout", c.tia_ota_rout);
  field("tia_ota_gbw_hz", c.tia_ota_gbw_hz);
  field("tia_bias_ma", c.tia_bias_ma);
  field("tia_input_noise_nv", c.tia_input_noise_nv);
  field("tia_flicker_corner_hz", c.tia_flicker_corner_hz);
  field("active_pair_noise_gm", c.active_pair_noise_gm);
  field("active_pair_flicker_corner_hz", c.active_pair_flicker_corner_hz);
  field("lo_buffer_ma", c.lo_buffer_ma);
  field("bias_overhead_ma", c.bias_overhead_ma);
  field("core_bias_ma", c.core_bias_ma);
  out.push_back('}');
}

std::string execute_metric(const Request& req) {
  const double value = core::evaluate_metric(req.metric);
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
    if (!set_config_number(config, key, value.as_number()))
      throw RequestError(ErrorCode::kBadParams, "unknown config field '" + key + "'");
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
  m.canonical = [](CanonicalWriter& w, const Request& req) {
    append_mixer_config(w, req.metric.config);
    w.begin_record("analysis");
    w.field("kind", "metric");
    w.field("metric", core::metric_name(req.metric.metric));
    w.field("f_if_hz", req.metric.f_if_hz);
    w.field("f_rf_hz", req.metric.f_rf_hz);
    w.end_record();
  };
  m.execute = execute_metric;
  m.serialize_params = [](std::string& out, const Request& req) {
    out += "\"metric\":" + json::quoted(core::metric_name(req.metric.metric));
    out += ",\"f_if_hz\":" + json::number(req.metric.f_if_hz);
    out += ",\"f_rf_hz\":" + json::number(req.metric.f_rf_hz);
    out += ",\"config\":";
    serialize_mixer_config(out, req.metric.config);
  };
  r.register_op(std::move(m));
}

}  // namespace rfmix::svc
