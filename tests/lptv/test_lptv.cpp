// Conversion-matrix engine tests: reduction to plain AC for static
// circuits, textbook chopper conversion gain (2/pi), noise folding
// conservation, and cyclostationary-vs-stationary consistency.
#include "lptv/lptv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

#include "mathx/sparse.hpp"
#include "mathx/units.hpp"
#include "npath/lo_gen.hpp"
#include "npath/zin.hpp"

namespace rfmix::lptv {
namespace {

using mathx::kBoltzmann;
using mathx::kPi;
using mathx::kT0;

TEST(SquareWave, LevelsAndMean) {
  const auto w = square_wave(256, 0.0, 1.0, 0.01);
  double mean = 0.0, mn = 1e9, mx = -1e9;
  for (const double v : w) {
    mean += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  mean /= static_cast<double>(w.size());
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(mn, 0.0, 1e-9);
  EXPECT_NEAR(mx, 1.0, 1e-9);
}

TEST(SquareWave, PhaseShiftRotatesWave) {
  const auto a = square_wave(128, -1.0, 1.0, 0.01, 0.0);
  const auto b = square_wave(128, -1.0, 1.0, 0.01, 0.5);
  // Half-period shift inverts the wave.
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], -b[i], 1e-9);
}

TEST(CosineWave, Values) {
  const auto w = cosine_wave(4, 1.0, 0.5);
  EXPECT_NEAR(w[0], 1.5, 1e-12);
  EXPECT_NEAR(w[1], 1.0, 1e-12);
  EXPECT_NEAR(w[2], 0.5, 1e-12);
}

TEST(ConversionMatrix, StaticCircuitReducesToAc) {
  // Resistor to ground: transimpedance at sideband 0 is R; no cross-sideband
  // coupling.
  LptvCircuit ckt;
  const int n1 = ckt.add_node();
  ckt.add_resistor(n1, 0, 250.0);
  ConversionAnalysis an(ckt, {1e9, 4});
  const PacSolution sol = an.solve_current_injection(1e6, 0, n1, 0);
  EXPECT_NEAR(std::abs(sol.v(0, n1)), 250.0, 1e-6);
  for (int k = -4; k <= 4; ++k) {
    if (k == 0) continue;
    EXPECT_NEAR(std::abs(sol.v(k, n1)), 0.0, 1e-9) << "k=" << k;
  }
}

TEST(ConversionMatrix, StaticRcPoleMatchesAcTheory) {
  LptvCircuit ckt;
  const int n1 = ckt.add_node();
  const double r = 1e3, c = 1e-9;
  ckt.add_resistor(n1, 0, r);
  ckt.add_capacitance(n1, 0, c);
  ConversionAnalysis an(ckt, {1e9, 3});
  const double fc = 1.0 / (mathx::kTwoPi * r * c);
  const Complex z = an.conversion_transimpedance(fc, 0, n1, 0, n1, 0, 0);
  EXPECT_NEAR(std::abs(z), r / std::sqrt(2.0), r * 1e-3);
}

TEST(ConversionMatrix, SidebandFrequenciesAreReported) {
  LptvCircuit ckt;
  const int n1 = ckt.add_node();
  ckt.add_resistor(n1, 0, 1.0);
  ConversionAnalysis an(ckt, {2.4e9, 2});
  const PacSolution sol = an.solve_current_injection(5e6, 0, n1, 0);
  EXPECT_NEAR(sol.sideband_freq(0), 5e6, 1.0);
  EXPECT_NEAR(sol.sideband_freq(1), 2.405e9, 1.0);
  EXPECT_NEAR(sol.sideband_freq(-1), -2.395e9, 1.0);
}

/// Double-balanced commutating transconductor: gm(t) toggles between +gm and
/// -gm. Conversion gain from input sideband +1 to output sideband 0 is
/// (2/pi) * gm * Rl * Rs (transimpedance form with the Norton input).
TEST(ConversionMatrix, ChopperVccsConversionGainIsTwoOverPi) {
  LptvCircuit ckt;
  const int in = ckt.add_node();
  const int out = ckt.add_node();
  const double rs = 50.0, rl = 1e3, gm = 10e-3;
  ckt.add_resistor(in, 0, rs);
  ckt.add_resistor(out, 0, rl);
  ckt.add_periodic_vccs(out, 0, in, 0,
                        square_wave(256, -gm, gm, 1e-6));
  ConversionAnalysis an(ckt, {2.4e9, 8});
  const Complex h = an.conversion_transimpedance(5e6, 0, in, 1, out, 0, 0);
  // v_in(+1) = rs; i_out(0) = gm_{-1} * v_in; v_out = -i/gl... magnitudes:
  const double expected = (2.0 / kPi) * gm * rs * rl;
  EXPECT_NEAR(std::abs(h), expected, expected * 0.01);
}

TEST(ConversionMatrix, ChopperHarmonicConversionFollowsOneOverM) {
  // Square-wave commutation converts from sideband 3 with 1/3 the gain of
  // sideband 1 (odd harmonics of the LO).
  LptvCircuit ckt;
  const int in = ckt.add_node();
  const int out = ckt.add_node();
  ckt.add_resistor(in, 0, 50.0);
  ckt.add_resistor(out, 0, 1e3);
  ckt.add_periodic_vccs(out, 0, in, 0, square_wave(256, -5e-3, 5e-3, 1e-6));
  ConversionAnalysis an(ckt, {1e9, 8});
  const double h1 = std::abs(an.conversion_transimpedance(1e6, 0, in, 1, out, 0, 0));
  const double h3 = std::abs(an.conversion_transimpedance(1e6, 0, in, 3, out, 0, 0));
  const double h2 = std::abs(an.conversion_transimpedance(1e6, 0, in, 2, out, 0, 0));
  EXPECT_NEAR(h3 / h1, 1.0 / 3.0, 0.02);
  EXPECT_LT(h2, h1 * 1e-3);  // even harmonics ideally vanish
}

TEST(ConversionMatrix, PassiveSwitchConversionLoss) {
  // Single series switch (periodic conductance, 50% duty) between a Norton
  // source and a load: fundamental conversion involves the g(theta)
  // fundamental coefficient (1/pi for a 0..g0 square).
  LptvCircuit ckt;
  const int a = ckt.add_node();
  const int b = ckt.add_node();
  const double rs = 50.0, rl = 50.0;
  ckt.add_resistor(a, 0, rs);
  ckt.add_resistor(b, 0, rl);
  ckt.add_periodic_conductance(a, b, square_wave(256, 1e-9, 1.0 / 5.0, 1e-6));
  ConversionAnalysis an(ckt, {1e9, 8});
  const Complex h_conv = an.conversion_transimpedance(1e6, 0, a, 1, b, 0, 0);
  const Complex h_thru = an.conversion_transimpedance(1e6, 0, a, 1, b, 0, 1);
  // Through-path (same sideband) must dominate the converted path.
  EXPECT_GT(std::abs(h_thru), std::abs(h_conv) * 1.2);
  EXPECT_GT(std::abs(h_conv), 0.0);
}

TEST(LptvNoise, StaticResistorMatchesNyquist) {
  LptvCircuit ckt;
  const int n1 = ckt.add_node();
  const double r = 10e3;
  ckt.add_resistor(n1, 0, r);
  const double psd_i = 4.0 * kBoltzmann * kT0 / r;
  ckt.add_noise_current(n1, 0, [psd_i](double) { return psd_i; }, "r.thermal");
  ConversionAnalysis an(ckt, {1e9, 4});
  const LptvNoiseResult res = an.output_noise(1e6, n1, 0);
  EXPECT_NEAR(res.total_output_psd_v2_hz, 4.0 * kBoltzmann * kT0 * r,
              4.0 * kBoltzmann * kT0 * r * 1e-3);
}

TEST(LptvNoise, CycloWithConstantIntensityEqualsStationary) {
  // A "cyclostationary" source with flat intensity must reproduce the
  // stationary result exactly.
  const double r = 5e3;
  const double psd_i = 4.0 * kBoltzmann * kT0 / r;

  LptvCircuit a;
  const int na = a.add_node();
  a.add_resistor(na, 0, r);
  a.add_noise_current(na, 0, [psd_i](double) { return psd_i; }, "stat");
  ConversionAnalysis ana(a, {1e9, 5});
  const double stationary = ana.output_noise(1e6, na, 0).total_output_psd_v2_hz;

  LptvCircuit b;
  const int nb = b.add_node();
  b.add_resistor(nb, 0, r);
  b.add_cyclo_noise_current(nb, 0, PeriodicWave(256, psd_i), "cyclo");
  ConversionAnalysis anb(b, {1e9, 5});
  const double cyclo = anb.output_noise(1e6, nb, 0).total_output_psd_v2_hz;

  EXPECT_NEAR(cyclo, stationary, stationary * 1e-6);
}

TEST(LptvNoise, ChopperConservesWhiteNoisePower) {
  // White stationary noise passed through a +-1 chopper keeps its total
  // power: sum over sidebands of |c_m|^2 = mean(square) = 1.
  LptvCircuit ckt(512);
  const int in = ckt.add_node();
  const int out = ckt.add_node();
  const double rs = 100.0, rl = 1e3, gm = 1e-3;
  ckt.add_resistor(in, 0, rs);
  ckt.add_resistor(out, 0, rl);
  ckt.add_periodic_vccs(out, 0, in, 0, square_wave(512, -gm, gm, 1e-6));
  const double psd_i = 1e-22;  // white test source at the input node
  ckt.add_noise_current(in, 0, [psd_i](double) { return psd_i; }, "src");
  // High harmonic count so the folded tail is captured.
  ConversionAnalysis an(ckt, {1e9, 25});
  const LptvNoiseResult res = an.output_noise(1e6, out, 0);
  // Input voltage noise psd_i*rs^2 times (gm*rl)^2, total over sidebands = 1x.
  const double expected = psd_i * rs * rs * gm * gm * rl * rl;
  // Sum |c_m|^2 over |m|<=25 odd: (2/pi)^2 * sum 1/m^2 ~ 0.9676 of unity.
  EXPECT_GT(res.total_output_psd_v2_hz, expected * 0.93);
  EXPECT_LT(res.total_output_psd_v2_hz, expected * 1.01);
}

TEST(LptvNoise, FlickerFoldsFromLoSidebands) {
  // 1/f noise at the input of a chopper appears at the output around DC
  // *folded from the LO sidebands*: at f_base far below f_lo the folded
  // flicker evaluated at ~f_lo is tiny, so output noise is white-ish and
  // much smaller than the unchopped case.
  const double gm = 1e-3, rs = 100.0, rl = 1e3;
  auto flicker = [](double f) { return 1e-18 / f; };

  // Unchopped reference: static vccs.
  LptvCircuit a;
  const int ia = a.add_node();
  const int oa = a.add_node();
  a.add_resistor(ia, 0, rs);
  a.add_resistor(oa, 0, rl);
  a.add_vccs(oa, 0, ia, 0, gm);
  a.add_noise_current(ia, 0, flicker, "flicker");
  ConversionAnalysis ana(a, {1e9, 4});
  const double unchopped = ana.output_noise(100.0, oa, 0).total_output_psd_v2_hz;

  // Chopped: same flicker source, commutated gm.
  LptvCircuit b;
  const int ib = b.add_node();
  const int ob = b.add_node();
  b.add_resistor(ib, 0, rs);
  b.add_resistor(ob, 0, rl);
  b.add_periodic_vccs(ob, 0, ib, 0, square_wave(256, -gm, gm, 1e-6));
  b.add_noise_current(ib, 0, flicker, "flicker");
  ConversionAnalysis anb(b, {1e9, 4});
  const double chopped = anb.output_noise(100.0, ob, 0).total_output_psd_v2_hz;

  EXPECT_LT(chopped, unchopped * 1e-4);  // chopping removes input 1/f
}

// The analysis keeps a reference to its circuit, so a temporary (such as
// lower_sampled_orbit's result) must not bind to it.
static_assert(std::is_constructible_v<ConversionAnalysis, const LptvCircuit&,
                                      ConversionOptions>);
static_assert(!std::is_constructible_v<ConversionAnalysis, LptvCircuit&&,
                                       ConversionOptions>);

TEST(ConversionAnalysis, ValidatesArguments) {
  LptvCircuit ckt;
  const int n1 = ckt.add_node();
  ckt.add_resistor(n1, 0, 1.0);
  EXPECT_THROW(ConversionAnalysis(ckt, {1e9, 0}), std::invalid_argument);
  EXPECT_THROW(ConversionAnalysis(ckt, {1e9, 200}), std::invalid_argument);
  ConversionAnalysis an(ckt, {1e9, 4});
  EXPECT_THROW(an.solve_current_injection(1e6, 0, n1, 9), std::invalid_argument);
}

TEST(ConversionAnalysis, NodeAndSidebandIndicesAreChecked) {
  LptvCircuit ckt;
  const int n1 = ckt.add_node();
  ckt.add_resistor(n1, 0, 1.0);
  // A negative id used to stamp into another sideband's block.
  EXPECT_THROW(ckt.add_resistor(-1, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(ckt.add_vccs(n1, 0, -2, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(ckt.add_noise_current(0, -1, [](double) { return 1.0; }, "x"),
               std::invalid_argument);
  EXPECT_EQ(ckt.num_nodes(), 2);

  const ConversionAnalysis an(ckt, {1e9, 2});
  const ConversionAnalysis::Factored sys = an.factor(1e6);
  auto message = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  // One node past the last at the top sideband used to write past the
  // right-hand side; a node past the last used to read another sideband.
  EXPECT_EQ(message([&] { sys.solve_current_injection(2, 0, +2); }),
            "LPTV node 2 outside [0, 1]");
  EXPECT_EQ(message([&] { sys.solve_current_injection(0, -1, 0); }),
            "LPTV node -1 outside [0, 1]");
  EXPECT_EQ(message([&] { sys.solve_current_injection(0, n1, -3); }),
            "sideband -3 outside [-2, 2]");
  EXPECT_EQ(message([&] { sys.output_noise(n1, 2); }), "LPTV node 2 outside [0, 1]");
  EXPECT_EQ(message([&] { ckt.note_node(-4); }),
            "LPTV node -4 is negative (node ids are >= 0; 0 is ground)");

  const PacSolution sol = sys.solve_current_injection(0, n1, +2);
  EXPECT_EQ(message([&] { sol.v(3, n1); }), "sideband 3 outside [-2, 2]");
  EXPECT_EQ(message([&] { sol.v(0, 2); }), "LPTV node 2 outside [0, 1]");
  EXPECT_EQ(sol.v(-2, 0), Complex{});
  EXPECT_NEAR(std::abs(sol.v(+2, n1)), 1.0, 1e-9);
}

/// Structural size of the analyzed LU of block_system(f) (L + U, diagonal
/// once) and of the block system itself.
struct BlockFill {
  std::size_t lu = 0;
  std::size_t a = 0;
};

BlockFill block_fill(const LptvCircuit& ckt, double f_lo, int harmonics, double f) {
  const ConversionAnalysis an(ckt, {f_lo, harmonics});
  const mathx::CscMatrix<Complex> a(an.block_system(f));
  mathx::SparseLuSymbolic<Complex> sym;
  const mathx::SparseLu<Complex> lu(a, sym);
  return {sym.l_capacity() + sym.u_capacity(), a.nnz()};
}

TEST(ConversionAnalysis, BlockSystemOrderKeepsFillInTheHubBlock) {
  // rfmixd's npath_zin load: 4 phases, K = 6, 28 samples. Every switch
  // couples the RF hub to one baseband node across all 13 x 13 sideband
  // pairs; numbered sideband-major, its LU filled to 65^2 = 4,225.
  npath::NpathSpec spec;
  spec.lo.samples = 28;
  spec.harmonics = 6;
  spec.zbb_r = 1e3;
  spec.switch_ron = 10.0;
  const npath::NpathCircuit nc = npath::build_npath_circuit(spec);
  const BlockFill fill = block_fill(nc.ckt, spec.f_lo_hz, spec.harmonics, 0.9e9);
  EXPECT_EQ(fill.a, 2197u);  // 13 coupled node pairs x 13^2 sideband pairs
  EXPECT_EQ(fill.lu, fill.a);

  // The order follows the structure, not the ids: the same circuit with
  // the RF node created last fills the same.
  LptvCircuit rf_last(spec.lo.samples);
  std::vector<int> bb;
  for (int p = 0; p < spec.lo.phases; ++p) bb.push_back(rf_last.add_node());
  const int rf = rf_last.add_node();
  rf_last.add_resistor(rf, 0, spec.r_source);
  const std::vector<PeriodicWave> waves =
      npath::lo_waveforms(spec.lo, 0.0, 1.0 / spec.switch_ron);
  for (std::size_t p = 0; p < bb.size(); ++p) {
    rf_last.add_periodic_conductance(rf, bb[p], waves[p]);
    rf_last.add_resistor(bb[p], 0, spec.zbb_r);
  }
  const BlockFill last = block_fill(rf_last, spec.f_lo_hz, spec.harmonics, 0.9e9);
  EXPECT_EQ(last.a, fill.a);
  EXPECT_EQ(last.lu, fill.lu);

  // 8 phases at K = 10 (bench_npath_zin's re-radiation spec): 35,397
  // sideband-major, 10,961 in degree order against nnz(A) = 10,125.
  npath::NpathSpec eight;
  eight.lo.phases = 8;
  eight.lo.duty = 1.0 / 8;
  eight.lo.samples = 128;
  eight.harmonics = 10;
  eight.zbb_c = 40e-12;
  const npath::NpathCircuit nc8 = npath::build_npath_circuit(eight);
  EXPECT_LE(block_fill(nc8.ckt, eight.f_lo_hz, eight.harmonics, 0.9e9).lu, 11000u);
}

TEST(LptvCircuit, WaveformSizeValidated) {
  LptvCircuit ckt(128);
  const int n1 = ckt.add_node();
  EXPECT_THROW(ckt.add_periodic_conductance(n1, 0, PeriodicWave(64, 1.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace rfmix::lptv
