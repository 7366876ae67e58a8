// Cross-cutting simulator property tests: superposition, AC-vs-transient
// consistency, reciprocity, and adjoint-vs-forward equivalence — the
// invariants that tie the independent analysis engines together.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mathx/rng.hpp"
#include "mathx/units.hpp"
#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"
#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/dcsweep.hpp"
#include "spice/devices_diode.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_sources.hpp"
#include "spice/noise.hpp"
#include "spice/op.hpp"
#include "spice/pss.hpp"
#include "spice/tran.hpp"

namespace rfmix::spice {
namespace {

/// Random linear resistive network shared by several properties.
struct RandomNetwork {
  Circuit ckt;
  std::vector<NodeId> nodes;
  VoltageSource* va = nullptr;
  VoltageSource* vb = nullptr;

  explicit RandomNetwork(std::uint64_t seed) {
    mathx::Rng rng(seed);
    for (int i = 0; i < 5; ++i) {
      const std::string name = std::to_string(i);
      nodes.push_back(ckt.node("n" + name));
    }
    va = &ckt.add<VoltageSource>("va", nodes[0], kGround, Waveform::dc(0.0));
    vb = &ckt.add<VoltageSource>("vb", nodes[1], kGround, Waveform::dc(0.0));
    int idx = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        const std::string name = std::to_string(idx++);
        ckt.add<Resistor>("r" + name, nodes[i], nodes[j], rng.uniform(100.0, 5e3));
      }
    }
    for (std::size_t i = 2; i < nodes.size(); ++i)
      ckt.add<Resistor>("rg" + std::to_string(i), nodes[i], kGround,
                        rng.uniform(500.0, 20e3));
  }
};

class LinearProperties : public ::testing::TestWithParam<int> {};

TEST_P(LinearProperties, SuperpositionHolds) {
  RandomNetwork net(static_cast<std::uint64_t>(GetParam()) + 40);
  const NodeId probe = net.nodes[3];
  auto solve_with = [&](double a, double b) {
    net.va->set_waveform(Waveform::dc(a));
    net.vb->set_waveform(Waveform::dc(b));
    return dc_operating_point(net.ckt).v(probe);
  };
  const double v_a = solve_with(2.0, 0.0);
  const double v_b = solve_with(0.0, -1.5);
  const double v_ab = solve_with(2.0, -1.5);
  EXPECT_NEAR(v_ab, v_a + v_b, 1e-7);
}

TEST_P(LinearProperties, AcMatchesTransientSteadyState) {
  // Drive one source with a sine; the transient steady-state amplitude at a
  // probe node must match the AC solution.
  RandomNetwork net(static_cast<std::uint64_t>(GetParam()) + 80);
  const NodeId probe = net.nodes[4];
  // Add one capacitor so the network has actual dynamics.
  net.ckt.add<Capacitor>("cx", probe, kGround, 2e-9);
  const double f = 1e6;

  net.va->set_ac(1.0);
  const Solution op = dc_operating_point(net.ckt);
  const AcResult ac = ac_sweep(net.ckt, op, {f});
  const double amp_ac = std::abs(ac.v(0, probe));

  net.va->set_waveform(Waveform::sine(1.0, f));
  const TranResult tr =
      transient(net.ckt, 8.0 / f, 1.0 / (f * 400.0), {{probe, kGround, "p"}});
  double peak = 0.0;
  const std::size_t n = tr.time_s.size();
  for (std::size_t i = n - 800; i < n; ++i)
    peak = std::max(peak, std::abs(tr.waveform(0)[i]));
  EXPECT_NEAR(peak, amp_ac, 0.03 * amp_ac + 1e-9);
}

TEST_P(LinearProperties, ReciprocityOfResistiveNetwork) {
  // For a reciprocal network, the transfer current-source@i -> voltage@j
  // equals source@j -> voltage@i.
  RandomNetwork net(static_cast<std::uint64_t>(GetParam()) + 120);
  // Remove the voltage sources' influence by setting them to 0 V (they
  // remain as shorts, which is fine: the network stays reciprocal).
  const NodeId ni = net.nodes[2];
  const NodeId nj = net.nodes[4];
  auto transfer = [&](NodeId from, NodeId to) {
    Circuit& c = net.ckt;
    auto& is = c.add<CurrentSource>("itest", kGround, from, Waveform::dc(1e-3));
    const double v = dc_operating_point(c).v(to);
    // Remove influence for the next call by zeroing the source.
    is.set_waveform(Waveform::dc(0.0));
    return v;
  };
  const double t_ij = transfer(ni, nj);
  const double t_ji = transfer(nj, ni);
  EXPECT_NEAR(t_ij, t_ji, 1e-9 + 1e-6 * std::abs(t_ij));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearProperties, ::testing::Range(0, 6));

TEST(NoiseProperty, AdjointMatchesForwardTransfer) {
  // The noise analysis computes source->output transfers via the transposed
  // system; verify one of them against an explicit forward AC solve with a
  // unit AC current source in place of the noise source.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add<Resistor>("r1", a, kGround, 2e3);
  ckt.add<Resistor>("r2", a, b, 5e3);
  ckt.add<Resistor>("r3", b, kGround, 1e3);
  ckt.add<Capacitor>("c1", b, kGround, 1e-12);
  const Solution op = dc_operating_point(ckt);
  const double f = 50e6;

  // Forward: unit AC current from a to ground; output voltage at b.
  Circuit fwd;
  const NodeId fa = fwd.node("a");
  const NodeId fb = fwd.node("b");
  fwd.add<Resistor>("r1", fa, kGround, 2e3);
  fwd.add<Resistor>("r2", fa, fb, 5e3);
  fwd.add<Resistor>("r3", fb, kGround, 1e3);
  fwd.add<Capacitor>("c1", fb, kGround, 1e-12);
  auto& isrc = fwd.add<CurrentSource>("i1", fa, kGround, Waveform::dc(0.0));
  isrc.set_ac(1.0);
  const Solution fop = dc_operating_point(fwd);
  const AcResult ac = ac_sweep(fwd, fop, {f});
  const double t_forward2 = std::norm(ac.v(0, fb));

  // Adjoint: r1's thermal noise contribution / its PSD = |transfer|^2.
  const NoiseResult nr = noise_analysis(ckt, op, b, kGround, {f});
  const double psd_r1 = 4.0 * mathx::kBoltzmann * mathx::kT0 / 2e3;
  const double t_adjoint2 = nr.contribution_psd(0, "r1") / psd_r1;
  EXPECT_NEAR(t_adjoint2, t_forward2, t_forward2 * 1e-6);
}

TEST(TranProperty, TimeInvarianceUnderDelay) {
  // Delaying the stimulus delays the response without changing its shape.
  auto run = [&](double delay) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    PulseWave pw;
    pw.v1 = 0.0;
    pw.v2 = 1.0;
    pw.delay_s = delay;
    pw.rise_s = 1e-12;
    pw.width_s = 1.0;
    ckt.add<VoltageSource>("v1", in, kGround, Waveform(pw));
    ckt.add<Resistor>("r1", in, out, 1e3);
    ckt.add<Capacitor>("c1", out, kGround, 1e-9);
    return transient(ckt, 5e-6, 5e-9, {{out, kGround, "o"}});
  };
  const TranResult a = run(0.0);
  const TranResult b = run(1e-6);
  const std::size_t shift = 200;  // 1 us / 5 ns
  for (std::size_t i = 0; i + shift < b.waveform(0).size(); i += 37) {
    EXPECT_NEAR(b.waveform(0)[i + shift], a.waveform(0)[i], 5e-3);
  }
}

#if RFMIX_OBS_ENABLED

// ---------------------------------------------------------------------------
// Instrumentation contract: the telemetry counters must account for the
// solver work exactly, on every code path, at every thread count. These are
// property tests over the same random networks as above.
// ---------------------------------------------------------------------------

/// Named counter deltas between two snapshots, restricted to a prefix set.
/// runtime.* is deliberately excluded by callers: pool scheduling counters
/// (tasks stolen/executed) are allowed to vary run to run.
std::map<std::string, std::uint64_t> counter_deltas(
    const obs::TelemetrySnapshot& before, const obs::TelemetrySnapshot& after,
    const std::vector<std::string>& prefixes) {
  std::map<std::string, std::uint64_t> base;
  for (const auto& c : before.counters) base[c.name] = c.value;
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : after.counters) {
    bool keep = false;
    for (const std::string& p : prefixes)
      if (c.name.rfind(p, 0) == 0) keep = true;
    if (!keep) continue;
    const auto it = base.find(c.name);
    const std::uint64_t prev = it == base.end() ? 0 : it->second;
    if (c.value != prev) out[c.name] = c.value - prev;
  }
  return out;
}

std::uint64_t delta(std::string_view name, std::uint64_t before) {
  return obs::counter_value(name) - before;
}

class InstrumentationContract : public ::testing::TestWithParam<int> {};

TEST_P(InstrumentationContract, TranStepAccountingBalances) {
  // accepted + rejected == attempted must hold on the one fixed grid,
  // stepped by transient() or by a PSS, on randomized RC networks; every
  // recorded sample and every PSS orbit sample is one accepted step.
  RandomNetwork net(static_cast<std::uint64_t>(GetParam()) + 200);
  mathx::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  for (std::size_t i = 2; i < net.nodes.size(); ++i)
    net.ckt.add<Capacitor>("ci" + std::to_string(i), net.nodes[i], kGround,
                           rng.uniform(0.5e-9, 5e-9));
  net.va->set_waveform(Waveform::sine(1.0, 1e6));

  std::uint64_t att = obs::counter_value("spice.tran.steps_attempted");
  std::uint64_t acc = obs::counter_value("spice.tran.steps_accepted");
  std::uint64_t rej = obs::counter_value("spice.tran.steps_rejected");
  const TranResult tr = transient(net.ckt, 4e-6, 4e-9, {{net.nodes[3], kGround, "p"}});
  ASSERT_EQ(tr.time_s.size(), 1001u);
  EXPECT_EQ(delta("spice.tran.steps_accepted", acc), tr.time_s.size() - 1);
  EXPECT_EQ(delta("spice.tran.steps_accepted", acc) + delta("spice.tran.steps_rejected", rej),
            delta("spice.tran.steps_attempted", att))
      << "transient";

  att = obs::counter_value("spice.tran.steps_attempted");
  acc = obs::counter_value("spice.tran.steps_accepted");
  rej = obs::counter_value("spice.tran.steps_rejected");
  PssOptions opts;
  opts.samples_per_period = 16;
  opts.max_periods = 8;
  const PssResult pss = periodic_steady_state(net.ckt, 1e-6, opts);
  ASSERT_GE(pss.periods_used, opts.min_periods);
  EXPECT_EQ(delta("spice.tran.steps_accepted", acc),
            static_cast<std::uint64_t>(pss.periods_used * opts.samples_per_period));
  EXPECT_EQ(delta("spice.tran.steps_accepted", acc) + delta("spice.tran.steps_rejected", rej),
            delta("spice.tran.steps_attempted", att))
      << "PSS";
}

TEST_P(InstrumentationContract, LuWorkCoversNewtonWork) {
  // Every Newton iteration factors the Jacobian once, and every solve runs
  // at least one iteration, so over any interval:
  //   lu.factorizations >= newton.iterations >= newton.solves.
  const std::uint64_t lu = obs::counter_value("spice.lu.factorizations");
  const std::uint64_t it = obs::counter_value("spice.newton.iterations");
  const std::uint64_t so = obs::counter_value("spice.newton.solves");

  RandomNetwork net(static_cast<std::uint64_t>(GetParam()) + 300);
  net.va->set_waveform(Waveform::dc(1.0));
  (void)dc_operating_point(net.ckt);

  EXPECT_GT(delta("spice.newton.solves", so), 0u);
  EXPECT_GE(delta("spice.newton.iterations", it), delta("spice.newton.solves", so));
  EXPECT_GE(delta("spice.lu.factorizations", lu), delta("spice.newton.iterations", it));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstrumentationContract, ::testing::Range(0, 4));

TEST(InstrumentationContract, SolverCountersInvariantUnderThreadCount) {
  // The determinism contract extends to telemetry: for a deterministic
  // parallel analysis (chunked DC sweep), every spice.* counter delta is
  // bit-identical at 1 thread and at 8. Only runtime.* scheduling counters
  // may differ, which is why they are excluded here.
  auto sweep_deltas = [&](int threads) {
    runtime::ScopedPool pool(threads);
    const obs::TelemetrySnapshot before = obs::snapshot();
    const DcSweepResult r = dc_sweep(
        [] {
          DcSweepInstance inst;
          auto ckt = std::make_shared<Circuit>();
          const NodeId in = ckt->node("in");
          const NodeId out = ckt->node("out");
          inst.source =
              &ckt->add<VoltageSource>("vs", in, kGround, Waveform::dc(0.0));
          ckt->add<Resistor>("r1", in, out, 1e3);
          ckt->add<Resistor>("r2", out, kGround, 2e3);
          ckt->add<Diode>("d1", out, kGround);
          inst.circuit = std::move(ckt);
          return inst;
        },
        -1.0, 1.0, 41);
    EXPECT_EQ(r.size(), 41u);
    return counter_deltas(before, obs::snapshot(), {"spice."});
  };

  const auto serial = sweep_deltas(1);
  const auto parallel = sweep_deltas(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

#endif  // RFMIX_OBS_ENABLED

}  // namespace
}  // namespace rfmix::spice
