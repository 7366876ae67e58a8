// Sampled-orbit front end tests: a periodic orbit of MNA matrices lowered
// by lower_sampled_orbit must reduce to plain AC for time-invariant
// systems and reproduce the element-built chopper.
#include <gtest/gtest.h>

#include <cmath>

#include "lptv/lptv.hpp"
#include "mathx/units.hpp"

namespace rfmix::lptv {
namespace {

TEST(MatrixConversion, StaticSystemReducesToAc) {
  // One node, conductance 1/250 to ground: injecting unit current gives
  // 250 V at sideband 0 and nothing elsewhere.
  const int m_samp = 32;
  mathx::MatrixD g(1, 1);
  g(0, 0) = 1.0 / 250.0;
  std::vector<mathx::MatrixD> samples(m_samp, g);
  mathx::MatrixD c(1, 1);
  const LptvCircuit ckt = lower_sampled_orbit(samples, c);
  ConversionAnalysis an(ckt, {1e9, 4});
  const int n0 = orbit_node(0);
  const PacSolution sol = an.solve_current_injection(1e6, 0, n0, 0);
  EXPECT_NEAR(std::abs(sol.v(0, n0)), 250.0, 1e-6);
  for (int k = -4; k <= 4; ++k) {
    if (k == 0) continue;
    EXPECT_NEAR(std::abs(sol.v(k, n0)), 0.0, 1e-9) << k;
  }
}

TEST(MatrixConversion, RcPoleMatchesAcTheory) {
  // The C matrix lowers to a grounded transcapacitance on the diagonal.
  const int m_samp = 32;
  const double r = 1e3, cval = 1e-9;
  mathx::MatrixD g(1, 1);
  g(0, 0) = 1.0 / r;
  std::vector<mathx::MatrixD> samples(m_samp, g);
  mathx::MatrixD c(1, 1);
  c(0, 0) = cval;
  const LptvCircuit ckt = lower_sampled_orbit(samples, c);
  ConversionAnalysis an(ckt, {1e9, 3});
  const double fc = 1.0 / (mathx::kTwoPi * r * cval);
  const PacSolution sol = an.solve_current_injection(fc, 0, orbit_node(0), 0);
  EXPECT_NEAR(std::abs(sol.v(0, orbit_node(0))), r / std::sqrt(2.0), r * 1e-3);
}

TEST(MatrixConversion, ChopperMatchesElementEngine) {
  // Two-node chopper: node 0 = input (rs), node 1 = output (rl), with a
  // commutated transconductance gm(t) = +-gm. Build the same system both
  // ways and compare the conversion transimpedance.
  const double rs = 50.0, rl = 1e3, gm = 10e-3;
  const double f_lo = 1e9, f_if = 5e6;
  const int k_hi = 6;

  // Element-built circuit.
  LptvCircuit ckt(256);
  const int nin = ckt.add_node();
  const int nout = ckt.add_node();
  ckt.add_resistor(nin, 0, rs);
  ckt.add_resistor(nout, 0, rl);
  ckt.add_periodic_vccs(0, nout, nin, 0, square_wave(256, -gm, gm, 1e-6));
  ConversionAnalysis ref(ckt, {f_lo, k_hi});
  const double h_ref = std::abs(
      ref.conversion_transimpedance(f_if, 0, nin, +1, nout, 0, 0));

  // Lowered from sampled 2x2 Jacobians.
  const int m_samp = 256;
  std::vector<mathx::MatrixD> samples;
  samples.reserve(m_samp);
  const PeriodicWave gm_wave = square_wave(m_samp, -gm, gm, 1e-6);
  for (int s = 0; s < m_samp; ++s) {
    mathx::MatrixD g(2, 2);
    g(0, 0) = 1.0 / rs;
    g(1, 1) = 1.0 / rl;
    // VCCS from (0 -> nout) controlled by v(nin): current gm(t)*v_in enters
    // node 1: row 1 gets -gm(t) * v0? Convention: current leaves ground,
    // enters out -> KCL row of out: -gm(t)*v_in.
    g(1, 0) = -gm_wave[static_cast<std::size_t>(s)];
    samples.push_back(g);
  }
  mathx::MatrixD c(2, 2);
  const LptvCircuit lowered = lower_sampled_orbit(samples, c);
  ConversionAnalysis an(lowered, {f_lo, k_hi});
  // Unit current into unknown 0 from ground.
  const PacSolution sol = an.solve_current_injection(f_if, 0, orbit_node(0), +1);
  const double h_mat = std::abs(sol.v(0, orbit_node(1)));
  EXPECT_NEAR(h_mat, h_ref, h_ref * 0.01);
  // Sanity: textbook value (2/pi) gm rs rl.
  EXPECT_NEAR(h_mat, 2.0 / mathx::kPi * gm * rs * rl, h_mat * 0.02);
}

TEST(MatrixConversion, ValidatesArguments) {
  mathx::MatrixD g(1, 1);
  g(0, 0) = 1.0;
  mathx::MatrixD c(1, 1);
  EXPECT_THROW(lower_sampled_orbit({}, c), std::invalid_argument);
  std::vector<mathx::MatrixD> ragged(32, g);
  ragged[5] = mathx::MatrixD(2, 2);
  EXPECT_THROW(lower_sampled_orbit(ragged, c), std::invalid_argument);
  mathx::MatrixD c_bad(2, 2);
  EXPECT_THROW(lower_sampled_orbit(std::vector<mathx::MatrixD>(32, g), c_bad),
               std::invalid_argument);
  const LptvCircuit few = lower_sampled_orbit(std::vector<mathx::MatrixD>(8, g), c);
  EXPECT_THROW(ConversionAnalysis(few, {1e9, 3}), std::invalid_argument);  // 8 < 4*3+2
  const LptvCircuit ckt = lower_sampled_orbit(std::vector<mathx::MatrixD>(32, g), c);
  ConversionAnalysis ok(ckt, {1e9, 3});
  EXPECT_THROW(ok.solve_current_injection(1e6, 0, orbit_node(0), 9), std::invalid_argument);
}

}  // namespace
}  // namespace rfmix::lptv
