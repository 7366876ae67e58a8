// DC operating-point tests: linear networks with known answers, nonlinear
// bias points, homotopy fallbacks, KCL-residual property checks.
#include "spice/op.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mathx/rng.hpp"
#include "spice/circuit.hpp"
#include "spice/devices_diode.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_sources.hpp"
#include "spice/mosfet.hpp"
#include "spice/tech65.hpp"

namespace rfmix::spice {
namespace {

TEST(Dc, VoltageDivider) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId mid = ckt.node("mid");
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::dc(10.0));
  ckt.add<Resistor>("r1", in, mid, 6e3);
  ckt.add<Resistor>("r2", mid, kGround, 4e3);
  const Solution op = dc_operating_point(ckt);
  EXPECT_NEAR(op.v(mid), 4.0, 1e-6);
}

TEST(Dc, CurrentSourceIntoResistor) {
  Circuit ckt;
  const NodeId n = ckt.node("n");
  // 1 mA flowing from ground to n through the source raises n to +1 V.
  ckt.add<CurrentSource>("i1", kGround, n, Waveform::dc(1e-3));
  ckt.add<Resistor>("r1", n, kGround, 1e3);
  const Solution op = dc_operating_point(ckt);
  EXPECT_NEAR(op.v(n), 1.0, 1e-9);
}

TEST(Dc, VoltageSourceBranchCurrent) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  auto& v1 = ckt.add<VoltageSource>("v1", in, kGround, Waveform::dc(5.0));
  ckt.add<Resistor>("r1", in, kGround, 1e3);
  const Solution op = dc_operating_point(ckt);
  // 5 mA flows out of the + terminal, i.e. branch current (p->m through
  // source) is -5 mA.
  EXPECT_NEAR(v1.current(op), -5e-3, 1e-9);
}

TEST(Dc, WheatstoneBridge) {
  Circuit ckt;
  const NodeId top = ckt.node("top");
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add<VoltageSource>("v1", top, kGround, Waveform::dc(10.0));
  ckt.add<Resistor>("r1", top, a, 1e3);
  ckt.add<Resistor>("r2", a, kGround, 2e3);
  ckt.add<Resistor>("r3", top, b, 2e3);
  ckt.add<Resistor>("r4", b, kGround, 4e3);
  ckt.add<Resistor>("rg", a, b, 5e3);  // balanced bridge: no galvanometer current
  const Solution op = dc_operating_point(ckt);
  EXPECT_NEAR(op.v(a), op.v(b), 1e-6);
  EXPECT_NEAR(op.v(a), 10.0 * 2.0 / 3.0, 1e-6);
}

TEST(Dc, DiodeForwardDrop) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId d = ckt.node("d");
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::dc(5.0));
  ckt.add<Resistor>("r1", in, d, 1e3);
  ckt.add<Diode>("d1", d, kGround);
  const Solution op = dc_operating_point(ckt);
  // Forward drop of a 1e-14 A diode at ~4.3 mA is about 0.7 V.
  EXPECT_GT(op.v(d), 0.55);
  EXPECT_LT(op.v(d), 0.85);
  // KCL: resistor current equals diode current.
  const double ir = (op.v(in) - op.v(d)) / 1e3;
  EXPECT_GT(ir, 4e-3);
}

TEST(Dc, DiodeReverseBlocks) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId d = ckt.node("d");
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::dc(-5.0));
  ckt.add<Resistor>("r1", in, d, 1e3);
  ckt.add<Diode>("d1", d, kGround);
  const Solution op = dc_operating_point(ckt);
  EXPECT_NEAR(op.v(d), -5.0, 0.01);  // nearly all voltage across the diode
}

TEST(Dc, NmosCommonSourceAmplifierBias) {
  Circuit ckt;
  const NodeId vdd = ckt.node("vdd");
  const NodeId g = ckt.node("g");
  const NodeId d = ckt.node("d");
  ckt.add<VoltageSource>("vdd", vdd, kGround, Waveform::dc(1.2));
  ckt.add<VoltageSource>("vg", g, kGround, Waveform::dc(0.55));
  ckt.add<Resistor>("rl", vdd, d, 2e3);
  ckt.add<Mosfet>("m1", d, g, kGround, kGround, tech65::nmos(10e-6));
  const Solution op = dc_operating_point(ckt);
  // Drain must sit between the rails, below VDD (current flows).
  EXPECT_GT(op.v(d), 0.05);
  EXPECT_LT(op.v(d), 1.19);
}

TEST(Dc, CmosInverterSwitchPoint) {
  // Sweep the inverter input; output must fall monotonically through mid-rail.
  auto vout_at = [](double vin) {
    Circuit ckt;
    const NodeId vdd = ckt.node("vdd");
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add<VoltageSource>("vdd", vdd, kGround, Waveform::dc(1.2));
    ckt.add<VoltageSource>("vin", in, kGround, Waveform::dc(vin));
    ckt.add<Mosfet>("mn", out, in, kGround, kGround, tech65::nmos(2e-6));
    ckt.add<Mosfet>("mp", out, in, vdd, vdd, tech65::pmos(5e-6));
    return dc_operating_point(ckt).v(out);
  };
  EXPECT_GT(vout_at(0.0), 1.15);
  EXPECT_LT(vout_at(1.2), 0.05);
  double prev = vout_at(0.0);
  for (double vin = 0.1; vin <= 1.2; vin += 0.1) {
    const double vo = vout_at(vin);
    EXPECT_LE(vo, prev + 1e-6) << "vin=" << vin;
    prev = vo;
  }
}

TEST(Dc, NmosDiodeConnectedStack) {
  // Two diode-connected NMOS in series across 1.2 V: each takes ~half.
  Circuit ckt;
  const NodeId vdd = ckt.node("vdd");
  const NodeId mid = ckt.node("mid");
  ckt.add<VoltageSource>("vdd", vdd, kGround, Waveform::dc(1.2));
  ckt.add<Mosfet>("m1", vdd, vdd, mid, kGround, tech65::nmos(4e-6));
  ckt.add<Mosfet>("m2", mid, mid, kGround, kGround, tech65::nmos(4e-6));
  const Solution op = dc_operating_point(ckt);
  EXPECT_GT(op.v(mid), 0.35);
  EXPECT_LT(op.v(mid), 0.85);
}

TEST(Dc, TotalPowerBalancesSourcesAndLoads) {
  // Conservation: sum of dissipated power over all devices is ~0 (sources
  // negative, resistors positive).
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId mid = ckt.node("mid");
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::dc(3.0));
  ckt.add<Resistor>("r1", in, mid, 1e3);
  ckt.add<Resistor>("r2", mid, kGround, 2e3);
  const Solution op = dc_operating_point(ckt);
  EXPECT_NEAR(total_dissipated_power(ckt, op), 0.0, 1e-9);
}

// Property: random resistive ladder networks satisfy KCL at every node.
class DcKclProperty : public ::testing::TestWithParam<int> {};

TEST_P(DcKclProperty, RandomResistiveNetworkSatisfiesKcl) {
  mathx::Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  Circuit ckt;
  const int n_nodes = 6;
  std::vector<NodeId> nodes;
  for (int i = 0; i < n_nodes; ++i) {
    const std::string name = std::to_string(i);
    nodes.push_back(ckt.node("n" + name));
  }
  ckt.add<VoltageSource>("v1", nodes[0], kGround, Waveform::dc(rng.uniform(1.0, 5.0)));
  struct Edge { NodeId a, b; double r; };
  std::vector<Edge> edges;
  // Spanning chain plus random chords; every node also leaks to ground so
  // the system is always well posed.
  for (int i = 0; i + 1 < n_nodes; ++i)
    edges.push_back({nodes[static_cast<std::size_t>(i)],
                     nodes[static_cast<std::size_t>(i + 1)], rng.uniform(100.0, 10e3)});
  for (int k = 0; k < 4; ++k) {
    const auto a = rng.uniform_index(n_nodes);
    const auto b = rng.uniform_index(n_nodes);
    if (a == b) continue;
    edges.push_back({nodes[a], nodes[b], rng.uniform(100.0, 10e3)});
  }
  for (int i = 1; i < n_nodes; ++i)
    edges.push_back({nodes[static_cast<std::size_t>(i)], kGround, rng.uniform(1e3, 50e3)});
  int idx = 0;
  for (const auto& e : edges) {
    const std::string name = std::to_string(idx++);
    ckt.add<Resistor>("r" + name, e.a, e.b, e.r);
  }

  const Solution op = dc_operating_point(ckt);
  // KCL at each non-driven node: net resistor current ~ 0.
  for (int i = 1; i < n_nodes; ++i) {
    double net = 0.0;
    for (const auto& e : edges) {
      if (e.a == nodes[static_cast<std::size_t>(i)])
        net += (op.v(e.a) - op.v(e.b)) / e.r;
      else if (e.b == nodes[static_cast<std::size_t>(i)])
        net += (op.v(e.b) - op.v(e.a)) / e.r;
    }
    EXPECT_NEAR(net, 0.0, 1e-8) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcKclProperty, ::testing::Range(0, 8));

TEST(Dc, UnconnectedNodeIsHandledByGmin) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId floating = ckt.node("float");
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("r1", in, kGround, 1e3);
  ckt.add<Capacitor>("c1", floating, kGround, 1e-12);  // open in DC
  const Solution op = dc_operating_point(ckt);
  EXPECT_NEAR(op.v(floating), 0.0, 1e-6);
}

}  // namespace
}  // namespace rfmix::spice
