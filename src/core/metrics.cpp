#include "core/metrics.hpp"

#include <stdexcept>
#include <vector>

#include "core/behavioral.hpp"
#include "core/lptv_model.hpp"
#include "rf/twotone.hpp"

namespace rfmix::core {

std::string_view metric_name(MixerMetric metric) {
  switch (metric) {
    case MixerMetric::kGainDb: return "gain_db";
    case MixerMetric::kNfDsbDb: return "nf_dsb_db";
    case MixerMetric::kIip3Dbm: return "iip3_dbm";
  }
  return "unknown";
}

MixerMetric metric_from_name(std::string_view name) {
  if (name == "gain_db") return MixerMetric::kGainDb;
  if (name == "nf_dsb_db") return MixerMetric::kNfDsbDb;
  if (name == "iip3_dbm") return MixerMetric::kIip3Dbm;
  throw std::invalid_argument("unknown mixer metric '" + std::string(name) +
                              "' (expected gain_db, nf_dsb_db, or iip3_dbm)");
}

double evaluate_metric(const MetricQuery& query) {
  // Both LPTV metrics read the same (possibly retuned) configuration.
  auto lptv_config = [&] {
    if (query.f_rf_hz <= 0.0) return query.config;
    return lo_retuned_for_rf(query.config, query.f_rf_hz, query.f_if_hz);
  };
  switch (query.metric) {
    case MixerMetric::kGainDb:
      return lptv_conversion_gain_db(lptv_config(), query.f_if_hz);
    case MixerMetric::kNfDsbDb:
      return lptv_nf_dsb(lptv_config(), query.f_if_hz).nf_dsb_db;
    case MixerMetric::kIip3Dbm: {
      const BehavioralMixer mixer(query.config);
      const std::vector<double> pins = {-40.0, -35.0, -30.0, -25.0, -20.0};
      const rf::InterceptResult r = rf::sweep_and_extract(
          pins, [&](double pin) { return mixer.two_tone(pin); });
      return r.iip3_dbm;
    }
  }
  throw std::invalid_argument("unhandled mixer metric");
}

}  // namespace rfmix::core
