// Transient analysis tests: RC charging vs closed form, sine steady state,
// LC ring energy behaviour, restart from a saved state, and the refusal of
// a state of another layout.
#include "spice/tran.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/circuits.hpp"
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

// An initial state must have the circuit's layout: the Newton loop's
// buffers hold exactly its unknowns. On the active mixer, a 200-node state
// used to run silently and a 3-node one to fail deep in a device stamp.
TEST(Tran, InitialStateOfAnotherLayoutThrowsNamingBothSizes) {
  core::MixerConfig cfg;
  cfg.mode = core::MixerMode::kActive;
  auto mixer = core::build_transistor_mixer(cfg);
  Circuit& ckt = mixer->circuit;
  const MnaLayout layout = ckt.finalize();
  const std::string circuit_size = "has " + std::to_string(layout.size()) + " (";
  const double dt = 1.0 / (cfg.f_lo_hz * 16);
  for (const int nodes : {200, 3}) {
    const Solution wrong = Solution::zeros(MnaLayout{nodes, 0});
    const std::string state_size = "has " + std::to_string(nodes - 1) + " unknowns";
    TranOptions opts;
    opts.initial_state = &wrong;
    try {
      (void)transient(ckt, 100 * dt, dt, {{mixer->if_p, mixer->if_m, "if"}}, opts);
      ADD_FAILURE() << nodes << "-node state accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(state_size), std::string::npos) << what;
      EXPECT_NE(what.find(circuit_size), std::string::npos) << what;
    }
    EXPECT_THROW((void)solve_newton(ckt, wrong, StampParams{}, NewtonOptions{}),
                 std::invalid_argument);
  }
  // Same size, other split between node voltages and branch currents.
  const Solution split =
      Solution::zeros(MnaLayout{layout.num_nodes + 1, layout.num_branches - 1});
  EXPECT_THROW((void)solve_newton(ckt, split, StampParams{}, NewtonOptions{}),
               std::invalid_argument);
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
