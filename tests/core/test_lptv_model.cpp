// LPTV-model tests: the conversion-matrix engine applied to the paper's
// topology must land on the published numbers (within the tolerance one
// expects of independent re-implementation) and reproduce every shape
// claim: mode ordering, band edges, flicker corners, TIA physics.
#include "core/lptv_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/behavioral.hpp"
#include "core/metrics.hpp"
#include "lptv/lptv.hpp"
#include "mathx/interp.hpp"
#include "mathx/units.hpp"
#include "obs/obs.hpp"

namespace rfmix::core {
namespace {

MixerConfig config_for(MixerMode mode) {
  MixerConfig cfg;
  cfg.mode = mode;
  return cfg;
}

TEST(LptvMixer, ActiveGainNearPaper) {
  EXPECT_NEAR(lptv_conversion_gain_db(config_for(MixerMode::kActive)), 29.2, 1.0);
}

TEST(LptvMixer, PassiveGainNearPaper) {
  EXPECT_NEAR(lptv_conversion_gain_db(config_for(MixerMode::kPassive)), 25.5, 1.0);
}

TEST(LptvMixer, GainAgreesWithBehavioralModelAtTheAnchor) {
  // Two independent engines at the paper's anchor (2.405 GHz RF, 5 MHz
  // IF): the conversion-matrix model and the paper-calibrated behavioral
  // model. Measured margin: 0.119 dB active, 0.132 dB passive.
  for (const MixerMode mode : {MixerMode::kActive, MixerMode::kPassive}) {
    const MixerConfig cfg = config_for(mode);
    EXPECT_NEAR(lptv_conversion_gain_db(cfg, 5e6),
                BehavioralMixer(cfg).conversion_gain_db(2.405e9, 5e6), 0.2)
        << frontend::mode_name(mode);
  }
}

TEST(LptvMixer, ActiveNfNearPaper) {
  EXPECT_NEAR(lptv_nf_dsb(config_for(MixerMode::kActive), 5e6).nf_dsb_db, 7.6, 1.0);
}

TEST(LptvMixer, PassiveNfNearPaper) {
  EXPECT_NEAR(lptv_nf_dsb(config_for(MixerMode::kPassive), 5e6).nf_dsb_db, 10.2, 1.0);
}

TEST(LptvMixer, ModeOrderingMatchesFig1Tradeoff) {
  const double ga = lptv_conversion_gain_db(config_for(MixerMode::kActive));
  const double gp = lptv_conversion_gain_db(config_for(MixerMode::kPassive));
  EXPECT_GT(ga, gp);          // active has more gain...
  EXPECT_NEAR(ga - gp, 3.7, 1.5);  // ...by roughly Table I's 3.7 dB

  const double nfa = lptv_nf_dsb(config_for(MixerMode::kActive), 5e6).nf_dsb_db;
  const double nfp = lptv_nf_dsb(config_for(MixerMode::kPassive), 5e6).nf_dsb_db;
  EXPECT_LT(nfa, nfp);        // ...and lower noise figure
  EXPECT_NEAR(nfp - nfa, 2.6, 1.2);
}

TEST(LptvMixer, ActiveBandEdges) {
  const MixerConfig cfg = config_for(MixerMode::kActive);
  const double peak = lptv_conversion_gain_at_rf_db(cfg, 2.45e9);
  // -3 dB (rel. 2.45 GHz) at ~1 and ~5.5 GHz, within half an octave.
  EXPECT_NEAR(lptv_conversion_gain_at_rf_db(cfg, 1.0e9), peak - 3.0, 1.2);
  EXPECT_NEAR(lptv_conversion_gain_at_rf_db(cfg, 5.5e9), peak - 3.0, 1.2);
  // Well outside the band the response keeps falling.
  EXPECT_LT(lptv_conversion_gain_at_rf_db(cfg, 0.4e9),
            lptv_conversion_gain_at_rf_db(cfg, 1.0e9) - 2.0);
}

TEST(LptvMixer, PassiveBandExtendsLower) {
  const MixerConfig a = config_for(MixerMode::kActive);
  const MixerConfig p = config_for(MixerMode::kPassive);
  // Paper: passive band reaches 0.5 GHz where active is already -3 dB at 1.
  const double rel_a =
      lptv_conversion_gain_at_rf_db(a, 0.5e9) - lptv_conversion_gain_at_rf_db(a, 2.45e9);
  const double rel_p =
      lptv_conversion_gain_at_rf_db(p, 0.5e9) - lptv_conversion_gain_at_rf_db(p, 2.45e9);
  EXPECT_LT(rel_a, rel_p - 2.0);
  EXPECT_NEAR(rel_p, -3.0, 1.2);
}

TEST(LptvMixer, PassiveFlickerCornerBelow100kHz) {
  const MixerConfig cfg = config_for(MixerMode::kPassive);
  const double floor_db = lptv_nf_dsb(cfg, 10e6).nf_dsb_db;
  EXPECT_LT(lptv_nf_dsb(cfg, 100e3).nf_dsb_db, floor_db + 3.0);
  EXPECT_GT(lptv_nf_dsb(cfg, 8e3).nf_dsb_db, floor_db + 3.0);
}

TEST(LptvMixer, ActiveFlickerCornerHigherThanPassive) {
  const MixerConfig a = config_for(MixerMode::kActive);
  const MixerConfig p = config_for(MixerMode::kPassive);
  const double rise_a =
      lptv_nf_dsb(a, 100e3).nf_dsb_db - lptv_nf_dsb(a, 10e6).nf_dsb_db;
  const double rise_p =
      lptv_nf_dsb(p, 100e3).nf_dsb_db - lptv_nf_dsb(p, 10e6).nf_dsb_db;
  EXPECT_GT(rise_a, rise_p + 1.0);
}

TEST(LptvMixer, IfBandwidthFromTiaAndCc) {
  // Gain vs IF drops ~3 dB around the 10-12 MHz pole in both modes.
  for (const MixerMode mode : {MixerMode::kActive, MixerMode::kPassive}) {
    const MixerConfig cfg = config_for(mode);
    const double g_low = lptv_conversion_gain_db(cfg, 1e6);
    const double g_pole = lptv_conversion_gain_db(cfg, 11e6);
    EXPECT_NEAR(g_low - g_pole, 3.0, 1.3) << frontend::mode_name(mode);
  }
}

TEST(LptvMixer, PassiveGainFollowsPaperFormula) {
  // Eq. (3): VCG = (2/pi) * gm * ZF, before input-network losses. Measured
  // gain must sit within ~2 dB of the formula (losses) and never above it.
  const MixerConfig cfg = config_for(MixerMode::kPassive);
  const double formula_db =
      20.0 * std::log10(2.0 / mathx::kPi * cfg.tca_gm * cfg.tia_rf);
  const double measured = lptv_conversion_gain_db(cfg, 1e6);
  EXPECT_LT(measured, formula_db + 0.1);
  EXPECT_GT(measured, formula_db - 5.0);
}

TEST(LptvMixer, GainScalesWithTgResistance) {
  // The paper's active-mode tuning knob: gain follows the TG load.
  MixerConfig cfg = config_for(MixerMode::kActive);
  const double g1 = lptv_conversion_gain_db(cfg, 5e6);
  cfg.tg_resistance *= 2.0;
  cfg.cc_load /= 2.0;  // keep the IF pole fixed
  const double g2 = lptv_conversion_gain_db(cfg, 5e6);
  EXPECT_NEAR(g2 - g1, 6.0, 0.8);
}

TEST(LptvMixer, GainScalesWithTiaRf) {
  // Eq. (4) discussion: "gain of the TIA can be tuned by changing RF".
  MixerConfig cfg = config_for(MixerMode::kPassive);
  const double g1 = lptv_conversion_gain_db(cfg, 1e6);
  cfg.tia_rf *= 2.0;
  cfg.tia_cf /= 2.0;
  const double g2 = lptv_conversion_gain_db(cfg, 1e6);
  EXPECT_NEAR(g2 - g1, 6.0, 1.0);
}

TEST(LptvMixer, NoiseBreakdownCoversExpectedSources) {
  const auto model = build_lptv_mixer(config_for(MixerMode::kPassive));
  lptv::ConversionAnalysis an(model->circuit, {2.4e9, 8});
  const auto noise = an.output_noise(5e6, model->out_p, model->out_m);
  auto has = [&](const std::string& s) {
    for (const auto& c : noise.contributions)
      if (c.label.find(s) != std::string::npos) return true;
    return false;
  };
  EXPECT_TRUE(has("source"));
  EXPECT_TRUE(has("tca.m1"));
  EXPECT_TRUE(has("quad.m3"));
  EXPECT_TRUE(has("tia.ota"));
  EXPECT_TRUE(has("sw12.rdeg"));
  for (const auto& c : noise.contributions) EXPECT_GE(c.output_psd_v2_hz, 0.0);
}

TEST(LptvMixer, GainConvergesWithHarmonicCount) {
  // Truncation study on the element engine: the K = 6 -> 8 -> 12 ladder
  // must contract (each refinement changes the answer less).
  const MixerConfig cfg = config_for(MixerMode::kPassive);
  auto gain_at = [&](int k) {
    const auto model = build_lptv_mixer(cfg);
    lptv::ConversionAnalysis an(model->circuit, {cfg.f_lo_hz, k});
    return 20.0 * std::log10(std::abs(an.conversion_transimpedance(
               5e6, 0, model->in, 1, model->out_p, model->out_m, 0)));
  };
  const double g6 = gain_at(6), g8 = gain_at(8), g12 = gain_at(12);
  EXPECT_LT(std::abs(g12 - g8), std::abs(g8 - g6) + 0.02);
  EXPECT_NEAR(g8, g12, 0.25);
}

TEST(LptvMixer, RfSweepRequiresRfAboveIf) {
  EXPECT_THROW(lptv_conversion_gain_at_rf_db(config_for(MixerMode::kActive), 1e6, 5e6),
               std::invalid_argument);
}

TEST(LptvMixer, MetricRfFrequencyRetunesTheLoForGainAndNf) {
  // mixer_metric's f_rf_hz > 0 retunes the LO (f_lo = f_rf - f_if) for
  // both LPTV metrics; the NF once answered for the config's own LO.
  MetricQuery q;
  q.config = config_for(MixerMode::kPassive);
  q.f_if_hz = 5e6;
  auto at_lo = [&](double f_lo_hz) {
    MixerConfig tuned = q.config;
    tuned.f_lo_hz = f_lo_hz;
    return tuned;
  };
  q.metric = MixerMetric::kNfDsbDb;
  q.f_rf_hz = 1.005e9;
  const double nf_1g = evaluate_metric(q);
  EXPECT_EQ(nf_1g, lptv_nf_dsb(at_lo(1e9), 5e6).nf_dsb_db);
  q.f_rf_hz = 5.205e9;
  const double nf_5g = evaluate_metric(q);
  EXPECT_EQ(nf_5g, lptv_nf_dsb(at_lo(5.2e9), 5e6).nf_dsb_db);
  EXPECT_GT(nf_5g, nf_1g + 1.0);  // 13.66 vs 10.56 dB
  q.f_rf_hz = 5e6;                // not above f_if
  EXPECT_THROW(evaluate_metric(q), std::invalid_argument);

  q.metric = MixerMetric::kGainDb;
  q.f_rf_hz = 1.005e9;
  EXPECT_EQ(evaluate_metric(q), lptv_conversion_gain_db(at_lo(1e9), 5e6));
  q.f_rf_hz = 5e6;
  EXPECT_THROW(evaluate_metric(q), std::invalid_argument);
}

#if RFMIX_OBS_ENABLED

TEST(LptvMixer, NfPointCostsOneFactorization) {
  // Regression for the Factored contract: one NF point = one LU, shared by
  // both sideband injections and (transposed) the noise solve — never one
  // per solve.
  const std::uint64_t before = obs::counter_value("lptv.lu.factorizations");
  (void)lptv_nf_dsb(config_for(MixerMode::kActive), 5e6);
  EXPECT_EQ(obs::counter_value("lptv.lu.factorizations") - before, 1u);
}

TEST(LptvMixer, BaseFrequencySweepAnalyzesOnce) {
  // One ConversionAnalysis factored at several base frequencies, each
  // point solving an injection and the noise: every base frequency is one
  // cold factorization, which analyzes once.
  const auto model = build_lptv_mixer(config_for(MixerMode::kActive));
  lptv::ConversionAnalysis an(model->circuit, {config_for(MixerMode::kActive).f_lo_hz, 6});
  const std::uint64_t fact0 = obs::counter_value("lptv.lu.factorizations");
  const std::uint64_t analyze0 = obs::counter_value("lptv.lu.analyze");
  const std::vector<double> f_ifs = {1e6, 2e6, 5e6, 10e6};
  for (const double f : f_ifs) {
    const lptv::ConversionAnalysis::Factored sys = an.factor(f);
    (void)sys.solve_current_injection(0, model->in, +1);
    (void)sys.output_noise(model->out_p, model->out_m);
  }
  EXPECT_EQ(obs::counter_value("lptv.lu.factorizations") - fact0, f_ifs.size());
  EXPECT_EQ(obs::counter_value("lptv.lu.analyze") - analyze0, f_ifs.size());
}

#endif  // RFMIX_OBS_ENABLED

}  // namespace
}  // namespace rfmix::core
