// Periodic steady-state tests.
#include "spice/pss.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "mathx/units.hpp"
#include "spice/circuit.hpp"
#include "spice/devices_diode.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_sources.hpp"
#include "spice/tran.hpp"

namespace rfmix::spice {
namespace {

TEST(Pss, RcDrivenAtPoleMatchesAcSteadyState) {
  const double r = 1e3, c = 1e-9;
  const double f = 1.0 / (mathx::kTwoPi * r * c);  // drive exactly at the pole
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::sine(1.0, f));
  ckt.add<Resistor>("r1", in, out, r);
  ckt.add<Capacitor>("c1", out, kGround, c);

  PssOptions opts;
  opts.samples_per_period = 128;
  const PssResult res = periodic_steady_state(ckt, 1.0 / f, opts);
  ASSERT_TRUE(res.converged);
  // Amplitude at the pole is 1/sqrt(2); phase -45 deg. Check amplitude from
  // the sampled orbit.
  double vmax = -1e9, vmin = 1e9;
  for (const auto& s : res.samples) {
    vmax = std::max(vmax, s.v(out));
    vmin = std::min(vmin, s.v(out));
  }
  EXPECT_NEAR((vmax - vmin) / 2.0, 1.0 / std::sqrt(2.0), 0.01);
}

TEST(Pss, DiodeRectifierChargesToPeak) {
  // Half-wave rectifier: the hold cap settles near the peak minus a diode
  // drop, with small ripple.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  const double f = 1e6;
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::sine(2.0, f));
  ckt.add<Diode>("d1", in, out);
  ckt.add<Capacitor>("c1", out, kGround, 100e-9);
  ckt.add<Resistor>("rl", out, kGround, 100e3);

  PssOptions opts;
  opts.samples_per_period = 64;
  opts.max_periods = 2000;
  opts.tol_v = 1e-4;
  const PssResult res = periodic_steady_state(ckt, 1.0 / f, opts);
  ASSERT_TRUE(res.converged);
  double mean = 0.0;
  for (const auto& s : res.samples) mean += s.v(out);
  mean /= static_cast<double>(res.samples.size());
  EXPECT_GT(mean, 1.1);  // 2 V peak minus ~0.7 V drop, some droop
  EXPECT_LT(mean, 1.6);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// A PSS steps the transient's own grid: on the same dt, a rectifier's third
// 16-sample period is transient() samples 33-48, bit for bit, the full
// state included.
TEST(Pss, OrbitStepsAreTransientSteps) {
  const double f = 1e6;
  const int n = 16;
  struct Rectifier {
    Circuit ckt;
    NodeId in = ckt.node("in");
    NodeId out = ckt.node("out");
    explicit Rectifier(double f) {
      ckt.add<VoltageSource>("v1", in, kGround, Waveform::sine(2.0, f));
      ckt.add<Diode>("d1", in, out);
      ckt.add<Capacitor>("c1", out, kGround, 100e-9);
      ckt.add<Resistor>("rl", out, kGround, 100e3);
    }
  };

  Rectifier a(f);
  PssOptions opts;
  opts.samples_per_period = n;
  opts.max_periods = 3;
  const PssResult pss = periodic_steady_state(a.ckt, 1.0 / f, opts);
  ASSERT_EQ(pss.periods_used, 3);
  ASSERT_EQ(pss.samples.size(), static_cast<std::size_t>(n));

  Rectifier b(f);
  const double dt = (1.0 / f) / n;
  const TranResult tr =
      transient(b.ckt, 3 * n * dt, dt, {{b.in, kGround, "in"}, {b.out, kGround, "out"}});
  ASSERT_EQ(tr.time_s.size(), static_cast<std::size_t>(3 * n + 1));
  for (int k = 0; k < n; ++k) {
    const std::size_t j = static_cast<std::size_t>(2 * n + 1 + k);
    const Solution& s = pss.samples[static_cast<std::size_t>(k)];
    EXPECT_EQ(bits(tr.waveform(0)[j]), bits(s.v(a.in))) << "sample " << j;
    EXPECT_EQ(bits(tr.waveform(1)[j]), bits(s.v(a.out))) << "sample " << j;
  }
  const auto& last = pss.samples.back().raw();
  ASSERT_EQ(tr.final_state.raw().size(), last.size());
  for (std::size_t i = 0; i < last.size(); ++i)
    EXPECT_EQ(bits(tr.final_state.raw()[i]), bits(last[i])) << "unknown " << i;
}

TEST(Pss, DcCircuitConvergesImmediately) {
  Circuit ckt;
  const NodeId n = ckt.node("n");
  ckt.add<VoltageSource>("v1", n, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("r1", n, kGround, 1e3);
  PssOptions opts;
  opts.samples_per_period = 8;
  const PssResult res = periodic_steady_state(ckt, 1e-6, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.periods_used, opts.min_periods + 1);
  for (const auto& s : res.samples) EXPECT_NEAR(s.v(n), 1.0, 1e-9);
}

TEST(Pss, ReportsNonConvergenceWhenToleranceUnreachable) {
  // An impossible tolerance exercises the best-effort return path: the
  // orbit is reported with converged=false and the achieved residual.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  const double f = 1e6;
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::sine(1.0, f, 0.5));
  ckt.add<Resistor>("r1", in, out, 1e3);
  ckt.add<Capacitor>("c1", out, kGround, 1e-9);
  PssOptions opts;
  opts.samples_per_period = 16;
  opts.max_periods = 20;
  opts.tol_v = 1e-18;  // below numerical noise: unreachable
  const PssResult res = periodic_steady_state(ckt, 1.0 / f, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.periods_used, 20);
  EXPECT_EQ(res.samples.size(), 16u);  // best effort still returned
  EXPECT_GT(res.residual_v, 0.0);
}

TEST(Pss, ValidatesArguments) {
  Circuit ckt;
  ckt.add<Resistor>("r1", ckt.node("n"), kGround, 1e3);
  EXPECT_THROW(periodic_steady_state(ckt, -1.0, {}), std::invalid_argument);
  PssOptions bad;
  bad.samples_per_period = 2;
  EXPECT_THROW(periodic_steady_state(ckt, 1e-6, bad), std::invalid_argument);
}

}  // namespace
}  // namespace rfmix::spice
