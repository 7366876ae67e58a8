// LTI noise analysis tests against closed-form results.
#include "spice/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mathx/units.hpp"
#include "spice/circuit.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_sources.hpp"
#include "spice/mosfet.hpp"
#include "spice/op.hpp"
#include "spice/tech65.hpp"

namespace rfmix::spice {
namespace {

using mathx::kBoltzmann;
using mathx::kT0;

TEST(Noise, SingleResistorNoiseIs4kTR) {
  // Output noise across a lone resistor: Sv = 4kTR.
  Circuit ckt;
  const NodeId n = ckt.node("n");
  ckt.add<Resistor>("r1", n, kGround, 10e3);
  // A large shunt cap far above the analysis frequency would filter; keep
  // the node purely resistive but grounded through a tiny-gmin path only.
  const Solution op = dc_operating_point(ckt);
  const NoiseResult res = noise_analysis(ckt, op, n, kGround, {1e3, 1e6});
  const double expected = 4.0 * kBoltzmann * kT0 * 10e3;
  EXPECT_NEAR(res.points[0].total_output_psd_v2_hz, expected, expected * 1e-3);
  EXPECT_NEAR(res.points[1].total_output_psd_v2_hz, expected, expected * 1e-3);
}

TEST(Noise, ParallelResistorsActAsParallelCombination) {
  Circuit ckt;
  const NodeId n = ckt.node("n");
  ckt.add<Resistor>("r1", n, kGround, 4e3);
  ckt.add<Resistor>("r2", n, kGround, 4e3);
  const Solution op = dc_operating_point(ckt);
  const NoiseResult res = noise_analysis(ckt, op, n, kGround, {1e6});
  const double expected = 4.0 * kBoltzmann * kT0 * 2e3;  // 4k || 4k
  EXPECT_NEAR(res.points[0].total_output_psd_v2_hz, expected, expected * 1e-3);
}

TEST(Noise, RcFilterRollsOffResistorNoise) {
  // Classic kT/C: integrated noise of RC is kT/C regardless of R; check the
  // spectral shape at the pole instead (half the flat PSD).
  Circuit ckt;
  const NodeId n = ckt.node("n");
  const double r = 100e3, c = 10e-12;
  ckt.add<Resistor>("r1", n, kGround, r);
  ckt.add<Capacitor>("c1", n, kGround, c);
  const Solution op = dc_operating_point(ckt);
  const double fc = 1.0 / (mathx::kTwoPi * r * c);
  const NoiseResult res = noise_analysis(ckt, op, n, kGround, {fc / 100.0, fc});
  const double flat = 4.0 * kBoltzmann * kT0 * r;
  EXPECT_NEAR(res.points[0].total_output_psd_v2_hz, flat, flat * 0.01);
  EXPECT_NEAR(res.points[1].total_output_psd_v2_hz, flat / 2.0, flat * 0.01);
}

TEST(Noise, ContributionsSumToTotal) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId out = ckt.node("out");
  ckt.add<Resistor>("rs", a, kGround, 1e3);
  ckt.add<Resistor>("rtop", a, out, 9e3);
  ckt.add<Resistor>("rbot", out, kGround, 1e3);
  const Solution op = dc_operating_point(ckt);
  const NoiseResult res = noise_analysis(ckt, op, out, kGround, {1e5});
  double sum = 0.0;
  for (const auto& c : res.points[0].contributions) sum += c.output_psd_v2_hz;
  EXPECT_NEAR(sum, res.points[0].total_output_psd_v2_hz, sum * 1e-12);
  EXPECT_EQ(res.points[0].contributions.size(), 3u);
}

TEST(Noise, CommonSourceStageInputReferredMatchesHandAnalysis) {
  // Output noise of a CS stage: Sout = 4kT*gamma*(gm+gds)*Rout^2 (channel)
  //                                  + 4kT*RL * (RL||ro / RL)^2 ... verify
  // against the analysis' own operating point values rather than magic
  // numbers.
  Circuit ckt;
  const NodeId vdd = ckt.node("vdd");
  const NodeId g = ckt.node("g");
  const NodeId d = ckt.node("d");
  ckt.add<VoltageSource>("vdd", vdd, kGround, Waveform::dc(1.2));
  ckt.add<VoltageSource>("vg", g, kGround, Waveform::dc(0.6));
  const double rl = 2e3;
  ckt.add<Resistor>("rl", vdd, d, rl);
  Mosfet& m = ckt.add<Mosfet>("m1", d, g, kGround, kGround, tech65::nmos(10e-6));
  const Solution op = dc_operating_point(ckt);
  const MosOperatingPoint mop = m.evaluate(op);

  const NoiseResult res = noise_analysis(ckt, op, d, kGround, {1e8});
  // At 100 MHz flicker is negligible for this size; thermal dominates.
  const double rout = 1.0 / (1.0 / rl + mop.gds);
  const double expected_channel =
      4.0 * kBoltzmann * 300.0 * 1.0 * (std::abs(mop.gm) + std::abs(mop.gds)) * rout * rout;
  const double expected_rl = 4.0 * kBoltzmann * kT0 / rl * rout * rout;
  const double ch = res.contribution_psd(0, "m1.thermal");
  const double rln = res.contribution_psd(0, "rl.thermal");
  EXPECT_NEAR(ch, expected_channel, expected_channel * 0.05);
  EXPECT_NEAR(rln, expected_rl, expected_rl * 0.05);
}

TEST(Noise, NonReciprocalGainStageMatchesHandAnalysis) {
  // A unilateral VCCS stage: rin's noise reaches the output amplified by
  // gm*RL, and rl's noise never reaches the input. The transfers come from
  // the transposed system; with Y^T replaced by Y, rin would vanish from the
  // output and rl would appear at the input.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  const double rin = 1e3, rl = 2e3, gm = 5e-3;
  ckt.add<Resistor>("rin", in, kGround, rin);
  ckt.add<Vccs>("g1", out, kGround, in, kGround, gm);
  ckt.add<Resistor>("rl", out, kGround, rl);
  const Solution op = dc_operating_point(ckt);
  const double four_kt = 4.0 * kBoltzmann * kT0;
  // The analysis' gmin shunts each node, hence the 1e-6 tolerance.

  const NoiseResult at_out = noise_analysis(ckt, op, out, kGround, {1e6});
  ASSERT_EQ(at_out.points[0].contributions.size(), 2u);
  const double rin_out = four_kt * rin * (gm * rl) * (gm * rl);
  EXPECT_NEAR(at_out.contribution_psd(0, "rin"), rin_out, rin_out * 1e-6);
  EXPECT_NEAR(at_out.contribution_psd(0, "rl"), four_kt * rl, four_kt * rl * 1e-6);

  const NoiseResult at_in = noise_analysis(ckt, op, in, kGround, {1e6});
  EXPECT_NEAR(at_in.contribution_psd(0, "rin"), four_kt * rin, four_kt * rin * 1e-6);
  EXPECT_NEAR(at_in.contribution_psd(0, "rl"), 0.0, four_kt * rin * 1e-12);
}

TEST(Noise, FlickerDominatesAtLowFrequencyInMosStage) {
  Circuit ckt;
  const NodeId vdd = ckt.node("vdd");
  const NodeId g = ckt.node("g");
  const NodeId d = ckt.node("d");
  ckt.add<VoltageSource>("vdd", vdd, kGround, Waveform::dc(1.2));
  ckt.add<VoltageSource>("vg", g, kGround, Waveform::dc(0.6));
  ckt.add<Resistor>("rl", vdd, d, 2e3);
  ckt.add<Mosfet>("m1", d, g, kGround, kGround, tech65::nmos(10e-6));
  const Solution op = dc_operating_point(ckt);
  const NoiseResult res = noise_analysis(ckt, op, d, kGround, {10.0, 1e9});
  const double flicker_low = res.contribution_psd(0, "flicker");
  const double thermal_low = res.contribution_psd(0, "thermal");
  EXPECT_GT(flicker_low, thermal_low);  // 10 Hz: flicker wins
  const double flicker_high = res.contribution_psd(1, "flicker");
  const double thermal_high = res.contribution_psd(1, "thermal");
  EXPECT_LT(flicker_high, thermal_high);  // 1 GHz: thermal wins
}

TEST(Noise, OutputDensityIsSqrtOfPsd) {
  Circuit ckt;
  const NodeId n = ckt.node("n");
  ckt.add<Resistor>("r1", n, kGround, 1e3);
  const Solution op = dc_operating_point(ckt);
  const NoiseResult res = noise_analysis(ckt, op, n, kGround, {1e6});
  EXPECT_NEAR(res.output_density(0),
              std::sqrt(res.points[0].total_output_psd_v2_hz), 1e-18);
}

}  // namespace
}  // namespace rfmix::spice
