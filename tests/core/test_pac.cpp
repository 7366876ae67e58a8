// PSS+PAC engine tests: the zero-hand-modeling periodic AC of the
// transistor mixer must agree with the transient-FFT measurement on the
// same circuit — the strongest cross-engine validation in the repo.
#include "core/pac_transistor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/measurements.hpp"
#include "obs/obs.hpp"

namespace rfmix::core {
namespace {

class PacVsTransient : public ::testing::TestWithParam<MixerMode> {};

TEST_P(PacVsTransient, ConversionGainsAgree) {
  MixerConfig cfg;
  cfg.mode = GetParam();

  const PacResult pac = pac_conversion_gain(cfg, 5e6);
  EXPECT_TRUE(pac.pss_converged);

  MixerConfig tcfg = cfg;
  tcfg.rf_series_r = 50.0;  // same circuit the PAC harness analyzed
  auto mixer = build_transistor_mixer(tcfg);
  TransientMeasureOptions topt;
  topt.grid_hz = 5e6;
  topt.grid_periods = 1;
  topt.settle_periods = 0.4;
  topt.samples_per_lo = 20;
  const double g_tran = measure_conversion_gain_db(*mixer, 5e6, 2e-3, topt);

  // Measured margin at this configuration: 0.196 dB active, 0.0001 dB
  // passive (deterministic at any thread count).
  EXPECT_NEAR(pac.conversion_gain_db, g_tran, 0.3) << frontend::mode_name(GetParam());
}

TEST_P(PacVsTransient, ImageGainNearlyEqualAtLowIf) {
  // A single (non-quadrature) path converts the image with nearly the same
  // gain as the wanted channel at low IF — the reason the front end needs
  // the I/Q extension of image_reject.hpp.
  MixerConfig cfg;
  cfg.mode = GetParam();
  const PacResult pac = pac_conversion_gain(cfg, 5e6);
  EXPECT_NEAR(pac.image_gain_db, pac.conversion_gain_db, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Modes, PacVsTransient,
                         ::testing::Values(MixerMode::kActive, MixerMode::kPassive));

TEST(Pac, PssSettlesFasterInPassiveMode) {
  // The passive path has no slow bias nodes (the TIA virtual grounds are
  // stiff), so its orbit settles in a handful of periods, whereas the
  // active mode's Cc output poles need tens of LO periods.
  MixerConfig a;
  a.mode = MixerMode::kActive;
  MixerConfig p;
  p.mode = MixerMode::kPassive;
  const PacResult ra = pac_conversion_gain(a, 5e6);
  const PacResult rp = pac_conversion_gain(p, 5e6);
  EXPECT_LT(rp.pss_periods, ra.pss_periods);
}

TEST(Pac, GainStableAcrossHarmonicCount) {
  // Truncation convergence on the lowered orbit PAC analyzes: K = 4 and
  // K = 8 must agree closely.
  MixerConfig cfg;
  cfg.mode = MixerMode::kPassive;
  const LoweredOrbit o = lower_mixer_orbit(cfg);
  auto gain_db = [&](int k) {
    const lptv::ConversionAnalysis an(o.circuit, {cfg.f_lo_hz, k});
    const lptv::PacSolution sol = an.solve_current_injection(5e6, o.rf_p, o.rf_m, +1);
    return 20.0 * std::log10(std::abs(sol.vd(0, o.if_p, o.if_m)) /
                             std::abs(sol.vd(+1, o.rf_p, o.rf_m)));
  };
  EXPECT_NEAR(gain_db(4), gain_db(8), 0.3);
}

TEST(Pnoise, OrderingAndPlausibility) {
  MixerConfig a;
  a.mode = MixerMode::kActive;
  MixerConfig p;
  p.mode = MixerMode::kPassive;
  const PnoiseResult ra = pac_nf_dsb(a, 5e6);
  const PnoiseResult rp = pac_nf_dsb(p, 5e6);
  EXPECT_TRUE(ra.pss_converged);
  EXPECT_TRUE(rp.pss_converged);
  // The transistor netlist's macromodeled TIA/bias are noiseless, so the
  // absolute NF reads low; the paper's mode ordering must still hold and
  // the values must be physical (> 0 dB, < 15 dB).
  EXPECT_LT(ra.nf_dsb_db, rp.nf_dsb_db);
  EXPECT_GT(ra.nf_dsb_db, 0.5);
  EXPECT_LT(rp.nf_dsb_db, 15.0);
  EXPECT_GT(ra.output_noise_v2_hz, 0.0);
}

TEST(Pnoise, NoiseRisesAtLowIfFromFlicker) {
  MixerConfig cfg;
  cfg.mode = MixerMode::kActive;
  const PnoiseResult lo = pac_nf_dsb(cfg, 30e3);
  const PnoiseResult hi = pac_nf_dsb(cfg, 5e6);
  EXPECT_GT(lo.nf_dsb_db, hi.nf_dsb_db + 1.0);  // 1/f corner visible
}

#if RFMIX_OBS_ENABLED

// The solver contract: each call factors its lowered orbit once at f_if.
// One LU serves both sideband injections and, transposed, the PNOISE
// noise solve.
std::uint64_t factorizations(const std::function<void()>& run) {
  const std::uint64_t before = obs::counter_value("lptv.lu.factorizations");
  run();
  return obs::counter_value("lptv.lu.factorizations") - before;
}

TEST(Pac, GainPointCostsOneFactorization) {
  MixerConfig cfg;
  cfg.mode = MixerMode::kActive;
  EXPECT_EQ(factorizations([&] { (void)pac_conversion_gain(cfg, 5e6); }), 1u);
}

TEST(Pnoise, NfPointCostsOneFactorization) {
  MixerConfig cfg;
  cfg.mode = MixerMode::kActive;
  EXPECT_EQ(factorizations([&] { (void)pac_nf_dsb(cfg, 5e6); }), 1u);
}

#endif  // RFMIX_OBS_ENABLED

}  // namespace
}  // namespace rfmix::core
