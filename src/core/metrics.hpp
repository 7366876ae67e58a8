// Named mixer metrics behind one uniform entry point.
//
// The service layer (src/svc) caches results by value identity, which
// needs a single function that maps (metric name, config, frequencies) to
// a number — the same shape a request carries over the wire. Each metric
// dispatches to the engine the benches already use: conversion gain and
// DSB NF come from the LPTV conversion-matrix model, IIP3 from the
// calibrated behavioral model through the standard two-tone intercept
// extraction.
#pragma once

#include <string>
#include <string_view>

#include "core/mixer_config.hpp"

namespace rfmix::core {

enum class MixerMetric {
  kGainDb,    // LPTV conversion gain [dB]
  kNfDsbDb,   // LPTV DSB noise figure [dB]
  kIip3Dbm,   // behavioral two-tone input intercept [dBm]
};

/// Wire name ("gain_db", "nf_dsb_db", "iip3_dbm").
std::string_view metric_name(MixerMetric metric);

/// Inverse of metric_name; throws std::invalid_argument on unknown names.
MixerMetric metric_from_name(std::string_view name);

struct MetricQuery {
  MixerMetric metric = MixerMetric::kGainDb;
  MixerConfig config;
  double f_if_hz = 5e6;
  /// When > 0 the LO is retuned so f_rf = f_lo + f_if (Fig. 8 convention;
  /// f_rf must exceed f_if); when 0 the config's own f_lo_hz anchors the
  /// RF. Applies to gain and NF; ignored for IIP3.
  double f_rf_hz = 0.0;
};

/// Evaluate one metric. Deterministic for a given query at any thread
/// count (the LPTV batch engines guarantee bit-identical parallel
/// reductions), which is what makes the result cacheable by content hash.
double evaluate_metric(const MetricQuery& query);

}  // namespace rfmix::core
