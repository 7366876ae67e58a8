// Transient analysis tests: RC charging vs closed form, sine steady state,
// LC ring energy behaviour, trapezoidal-vs-BE accuracy ordering, adaptive
// stepping, and restart from a saved state.
#include "spice/tran.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mathx/units.hpp"
#include "spice/circuit.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_sources.hpp"
#include "spice/mosfet.hpp"
#include "spice/tech65.hpp"

namespace rfmix::spice {
namespace {

struct RcStep {
  Circuit ckt;
  NodeId out;
  RcStep(double r, double c, double v_final) {
    const NodeId in = ckt.node("in");
    out = ckt.node("out");
    // Pulse from 0 to v_final at t=0 (fast edge).
    PulseWave pw;
    pw.v1 = 0.0;
    pw.v2 = v_final;
    pw.delay_s = 0.0;
    pw.rise_s = 1e-12;
    pw.width_s = 1.0;
    ckt.add<VoltageSource>("v1", in, kGround, Waveform(pw));
    ckt.add<Resistor>("r1", in, out, r);
    ckt.add<Capacitor>("c1", out, kGround, c);
  }
};

TEST(Tran, RcStepMatchesClosedForm) {
  const double r = 1e3, c = 1e-9, vf = 1.0;
  const double tau = r * c;
  RcStep fix(r, c, vf);
  const TranResult res =
      transient(fix.ckt, 5.0 * tau, tau / 200.0, {{fix.out, kGround, "out"}});
  for (std::size_t i = 1; i < res.time_s.size(); i += 37) {
    const double t = res.time_s[i];
    const double expected = vf * (1.0 - std::exp(-t / tau));
    EXPECT_NEAR(res.waveform(0)[i], expected, 0.01 * vf) << "t=" << t;
  }
  // Final value within 1%.
  EXPECT_NEAR(res.waveform(0).back(), vf * (1.0 - std::exp(-5.0)), 5e-3);
}

TEST(Tran, TrapezoidalBeatsBackwardEulerOnRc) {
  const double r = 1e3, c = 1e-9, vf = 1.0;
  const double tau = r * c;
  auto max_err = [&](Integrator integ) {
    RcStep fix(r, c, vf);
    TranOptions opts;
    opts.integrator = integ;
    const TranResult res =
        transient(fix.ckt, 3.0 * tau, tau / 20.0, {{fix.out, kGround, "out"}}, opts);
    double err = 0.0;
    for (std::size_t i = 1; i < res.time_s.size(); ++i) {
      const double expected = vf * (1.0 - std::exp(-res.time_s[i] / tau));
      err = std::max(err, std::abs(res.waveform(0)[i] - expected));
    }
    return err;
  };
  const double err_be = max_err(Integrator::kBackwardEuler);
  const double err_trap = max_err(Integrator::kTrapezoidal);
  EXPECT_LT(err_trap, err_be * 0.5);
}

TEST(Tran, SineSteadyStateAmplitudeAtPole) {
  // Drive the RC at its corner frequency: steady-state amplitude 1/sqrt(2).
  const double r = 1e3, c = 1e-9;
  const double fc = 1.0 / (mathx::kTwoPi * r * c);
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::sine(1.0, fc));
  ckt.add<Resistor>("r1", in, out, r);
  ckt.add<Capacitor>("c1", out, kGround, c);
  const double period = 1.0 / fc;
  const TranResult res =
      transient(ckt, 12.0 * period, period / 200.0, {{out, kGround, "out"}});
  // Amplitude over the last two periods.
  double peak = 0.0;
  const std::size_t n = res.time_s.size();
  for (std::size_t i = n - 400; i < n; ++i)
    peak = std::max(peak, std::abs(res.waveform(0)[i]));
  EXPECT_NEAR(peak, 1.0 / std::sqrt(2.0), 0.02);
}

TEST(Tran, LcRingFrequencyAndEnergy) {
  // Charged C discharging into L: rings at f0 with (trapezoidal) nearly
  // conserved amplitude.
  Circuit ckt;
  const NodeId n1 = ckt.node("n1");
  const double l = 1e-6, c = 1e-9;
  // Start via an initial current source pulse that is removed quickly.
  PulseWave kick;
  kick.v1 = 0.0;
  kick.v2 = 1e-3;
  kick.width_s = 30e-9;
  kick.rise_s = 1e-10;
  kick.fall_s = 1e-10;
  ckt.add<CurrentSource>("ikick", kGround, n1, Waveform(kick));
  ckt.add<Inductor>("l1", n1, kGround, l);
  ckt.add<Capacitor>("c1", n1, kGround, c);
  const double f0 = 1.0 / (mathx::kTwoPi * std::sqrt(l * c));
  const double period = 1.0 / f0;
  const TranResult res =
      transient(ckt, 20.0 * period, period / 400.0, {{n1, kGround, "n1"}});
  // Count zero crossings in the second half to estimate frequency.
  const auto& w = res.waveform(0);
  const std::size_t half = w.size() / 2;
  int crossings = 0;
  for (std::size_t i = half + 1; i < w.size(); ++i)
    if ((w[i - 1] < 0.0) != (w[i] < 0.0)) ++crossings;
  const double t_span = res.time_s.back() - res.time_s[half];
  const double f_est = crossings / (2.0 * t_span);
  EXPECT_NEAR(f_est, f0, 0.03 * f0);
}

TEST(Tran, RestartFromSavedStateIsSeamless) {
  const double r = 1e3, c = 1e-9, vf = 1.0;
  const double tau = r * c;
  // Run 2*tau in one shot.
  RcStep one(r, c, vf);
  const TranResult full =
      transient(one.ckt, 2.0 * tau, tau / 100.0, {{one.out, kGround, "out"}});

  // Same thing in two chained runs. The source waveform is time-shifted for
  // the second segment, but for a settled step input it is constant anyway.
  RcStep two(r, c, vf);
  const TranResult first =
      transient(two.ckt, 1.0 * tau, tau / 100.0, {{two.out, kGround, "out"}});
  TranOptions opts;
  opts.initial_state = &first.final_state;
  const TranResult second =
      transient(two.ckt, 1.0 * tau, tau / 100.0, {{two.out, kGround, "out"}}, opts);
  EXPECT_NEAR(second.waveform(0).back(), full.waveform(0).back(), 0.02 * vf);
}

TEST(Tran, AdaptiveTracksRcStep) {
  const double r = 1e3, c = 1e-9, vf = 1.0;
  const double tau = r * c;
  RcStep fix(r, c, vf);
  TranOptions opts;
  opts.adaptive = true;
  const TranResult res =
      transient(fix.ckt, 5.0 * tau, tau / 10.0, {{fix.out, kGround, "out"}}, opts);
  ASSERT_GT(res.time_s.size(), 10u);
  for (std::size_t i = 1; i < res.time_s.size(); ++i) {
    const double expected = vf * (1.0 - std::exp(-res.time_s[i] / tau));
    EXPECT_NEAR(res.waveform(0)[i], expected, 0.03 * vf);
  }
}

TEST(Tran, MosSourceFollowerTracksSlowRamp) {
  Circuit ckt;
  const NodeId vdd = ckt.node("vdd");
  const NodeId g = ckt.node("g");
  const NodeId s = ckt.node("s");
  ckt.add<VoltageSource>("vdd", vdd, kGround, Waveform::dc(1.2));
  PwlWave ramp;
  ramp.points = {{0.0, 0.7}, {1e-6, 1.1}};
  ckt.add<VoltageSource>("vg", g, kGround, Waveform(ramp));
  ckt.add<Mosfet>("m1", vdd, g, s, kGround, tech65::nmos(20e-6));
  ckt.add<Resistor>("rs", s, kGround, 5e3);
  const TranResult res = transient(ckt, 1e-6, 1e-9, {{s, kGround, "s"}});
  // Follower output rises by roughly the gate step (within body/slope loss).
  const double rise = res.waveform(0).back() - res.waveform(0).front();
  EXPECT_GT(rise, 0.25);
  EXPECT_LT(rise, 0.45);
}

TEST(Tran, InvalidArgsThrow) {
  RcStep fix(1e3, 1e-9, 1.0);
  EXPECT_THROW(transient(fix.ckt, 0.0, 1e-9, {}), std::invalid_argument);
  EXPECT_THROW(transient(fix.ckt, 1e-6, -1.0, {}), std::invalid_argument);
}

}  // namespace
}  // namespace rfmix::spice
