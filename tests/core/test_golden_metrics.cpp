// Golden-metrics regression suite: every headline Table I number, pinned
// with an explicit tolerance, through the same measurement paths the
// benches use. The LPTV engine carries gain and NF (physics-derived, so the
// paper tolerance is ±1 dB); the calibrated behavioral engine carries the
// large-signal metrics through the rf:: extraction machinery (calibrated,
// so the tolerances are tight). A refactor that silently shifts any
// headline metric fails here, not in a bench someone has to eyeball.
#include <gtest/gtest.h>

#include <vector>

#include "core/behavioral.hpp"
#include "core/lptv_model.hpp"
#include "core/mixer_config.hpp"
#include "rf/compression.hpp"
#include "rf/twotone.hpp"

namespace rfmix::core {
namespace {

MixerConfig config_for(MixerMode mode) {
  MixerConfig cfg;
  cfg.mode = mode;
  return cfg;
}


std::vector<double> lin_pins(double lo, double hi, int n) {
  std::vector<double> pins;
  for (int i = 0; i < n; ++i)
    pins.push_back(lo + (hi - lo) * static_cast<double>(i) / (n - 1));
  return pins;
}

// ------------------------------------------------- conversion gain (LPTV)

// Table I: 29.2 dB active, 25.5 dB passive, at 2.45 GHz RF / 5 MHz IF.
// ±1.0 dB: the engine derives these from element values, not curve fits.
double gain_metric(MixerMode m) {
  return lptv_conversion_gain_db(config_for(m), 5e6);
}

TEST(GoldenMetrics, ActiveConversionGain) {
  EXPECT_NEAR(gain_metric(MixerMode::kActive), 29.2, 1.0);
}

TEST(GoldenMetrics, PassiveConversionGain) {
  EXPECT_NEAR(gain_metric(MixerMode::kPassive), 25.5, 1.0);
}

// ------------------------------------------------------ NF at 5 MHz (LPTV)

// Table I: 7.6 dB active, 10.2 dB passive (DSB, 5 MHz IF). ±1.0 dB.
double nf_metric(MixerMode m) { return lptv_nf_dsb(config_for(m), 5e6).nf_dsb_db; }

TEST(GoldenMetrics, ActiveNfAt5Mhz) {
  EXPECT_NEAR(nf_metric(MixerMode::kActive), 7.6, 1.0);
}

TEST(GoldenMetrics, PassiveNfAt5Mhz) {
  EXPECT_NEAR(nf_metric(MixerMode::kPassive), 10.2, 1.0);
}

// The batch sweep APIs must agree exactly with the pointwise calls they
// parallelize — this is what lets the Fig. 8/9 benches switch over.
TEST(GoldenMetrics, BatchSweepsMatchPointwise) {
  const MixerConfig cfg = config_for(MixerMode::kActive);
  const std::vector<double> rfs = {1.5e9, 2.45e9, 4.0e9};
  const std::vector<double> gains = lptv_gain_vs_rf_sweep_db(cfg, rfs);
  ASSERT_EQ(gains.size(), rfs.size());
  for (std::size_t i = 0; i < rfs.size(); ++i)
    EXPECT_EQ(gains[i], lptv_conversion_gain_at_rf_db(cfg, rfs[i]));

  const std::vector<double> ifs = {1e6, 5e6};
  const std::vector<LptvNfPoint> nf = lptv_nf_sweep(cfg, ifs);
  ASSERT_EQ(nf.size(), ifs.size());
  for (std::size_t i = 0; i < ifs.size(); ++i) {
    EXPECT_EQ(nf[i].nf_dsb_db, lptv_nf_dsb(cfg, ifs[i]).nf_dsb_db);
    EXPECT_EQ(nf[i].gain_db, lptv_nf_dsb(cfg, ifs[i]).gain_db);
  }
}

// ------------------------------------------- IIP3 (behavioral + rf:: fit)

// Table I: -11.9 dBm active, +6.57 dBm passive. The behavioral polynomial
// is calibrated to these, and the rf:: two-tone fit must recover them
// through the full measurement path; ±0.3 dB covers fit residuals only.
double measured_iip3_dbm(MixerMode mode) {
  const BehavioralMixer mixer(config_for(mode));
  const auto sweep = lin_pins(-70.0, -45.0, 9);
  return rf::sweep_and_extract(sweep, [&](double pin) { return mixer.two_tone(pin); })
      .iip3_dbm;
}

TEST(GoldenMetrics, ActiveIip3) {
  EXPECT_NEAR(measured_iip3_dbm(MixerMode::kActive), -11.9, 0.3);
}

TEST(GoldenMetrics, PassiveIip3) {
  EXPECT_NEAR(measured_iip3_dbm(MixerMode::kPassive), 6.57, 0.3);
}

// Section IV: "IIP2 > 65 dBm for both cases".
TEST(GoldenMetrics, Iip2AbovePaperFloor) {
  for (const MixerMode mode : {MixerMode::kActive, MixerMode::kPassive}) {
    const BehavioralMixer mixer(config_for(mode));
    const auto sweep = lin_pins(-70.0, -45.0, 9);
    const rf::InterceptResult fit =
        rf::sweep_and_extract(sweep, [&](double pin) { return mixer.two_tone(pin); });
    ASSERT_TRUE(fit.has_iip2);
    EXPECT_GT(fit.iip2_dbm, 65.0);
  }
}

// ------------------------------------------- P1dB (behavioral + rf:: fit)

// Section IV quotes the 1 dB compression points; the compression sweep must
// land on the spec anchors within the interpolation error of find_p1db.
double measured_p1db_dbm(MixerMode mode) {
  const BehavioralMixer mixer(config_for(mode));
  const auto sweep = lin_pins(-60.0, -5.0, 111);
  const rf::CompressionResult res = rf::find_p1db(
      sweep, [&](double pin) { return mixer.single_tone_pout_dbm(pin); });
  EXPECT_TRUE(res.found);
  return res.p1db_in_dbm;
}

TEST(GoldenMetrics, ActiveP1db) {
  EXPECT_NEAR(measured_p1db_dbm(MixerMode::kActive),
              paper_active_spec().p1db_dbm, 0.5);
}

TEST(GoldenMetrics, PassiveP1db) {
  EXPECT_NEAR(measured_p1db_dbm(MixerMode::kPassive),
              paper_passive_spec().p1db_dbm, 0.5);
}

// The paper's mode asymmetry in large-signal handling: passive mode trades
// gain for markedly better linearity in both metrics.
TEST(GoldenMetrics, PassiveModeIsMoreLinear) {
  EXPECT_GT(measured_iip3_dbm(MixerMode::kPassive),
            measured_iip3_dbm(MixerMode::kActive) + 15.0);
  EXPECT_GT(measured_p1db_dbm(MixerMode::kPassive),
            measured_p1db_dbm(MixerMode::kActive) + 8.0);
}

}  // namespace
}  // namespace rfmix::core
