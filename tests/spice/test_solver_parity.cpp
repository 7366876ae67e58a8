// Bit-exactness harness for the solver (docs/solver.md). Every factor an
// engine uses must be byte-identical to a fresh SparseLu(a), the cold
// analysis that every first factor and every fallback runs: the reference
// tests pin SolverSession and SweepLu against it at the factor boundary,
// and the engine tests pin whole runs at 1 and 8 threads. The comparisons
// are memcmp over raw vectors — not EXPECT_DOUBLE_EQ — because a replayed
// factor is only trustworthy if it repeats the exact arithmetic of the
// analysis, signed zeros included.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "core/circuits.hpp"
#include "lptv/lptv.hpp"
#include "mathx/units.hpp"
#include "npath/zin.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "spice/ac.hpp"
#include "spice/dcsweep.hpp"
#include "spice/devices_diode.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_sources.hpp"
#include "spice/mna.hpp"
#include "spice/mosfet.hpp"
#include "spice/noise.hpp"
#include "spice/op.hpp"
#include "spice/pss.hpp"
#include "spice/solver.hpp"
#include "spice/tech65.hpp"
#include "spice/tran.hpp"

namespace rfmix::spice {
namespace {

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

core::MixerConfig mixer_config(core::MixerMode mode) {
  core::MixerConfig cfg;
  cfg.mode = mode;
  return cfg;
}

// Each run builds a fresh mixer: devices carry transient companion state,
// so sharing a circuit between runs would make later runs depend on
// earlier ones instead of on the thread count under test.

std::vector<double> run_op(int threads, core::MixerMode mm) {
  runtime::ScopedPool pool(threads);
  auto mixer = core::build_transistor_mixer(mixer_config(mm));
  return dc_operating_point(mixer->circuit).raw();
}

std::vector<double> run_tran(int threads, core::MixerMode mm) {
  runtime::ScopedPool pool(threads);
  const core::MixerConfig cfg = mixer_config(mm);
  auto mixer = core::build_transistor_mixer(cfg);
  core::set_rf_stimulus(*mixer, {{2.45e9}, 5e-3});
  const double dt = 1.0 / (cfg.f_lo_hz * 16);
  const TranResult res = transient(mixer->circuit, 24 * dt, dt,
                                   {{mixer->if_p, mixer->if_m, "if"}});
  std::vector<double> bits = res.final_state.raw();
  for (const auto& w : res.waveforms) bits.insert(bits.end(), w.begin(), w.end());
  return bits;
}

std::vector<double> run_pss(int threads, core::MixerMode mm) {
  runtime::ScopedPool pool(threads);
  const core::MixerConfig cfg = mixer_config(mm);
  auto mixer = core::build_transistor_mixer(cfg);
  PssOptions opts;
  opts.samples_per_period = 16;
  opts.max_periods = 2;  // parity cares about the orbit bits, not convergence
  opts.min_periods = 2;
  const PssResult res = periodic_steady_state(mixer->circuit, 1.0 / cfg.f_lo_hz, opts);
  std::vector<double> bits;
  for (const auto& s : res.samples)
    bits.insert(bits.end(), s.raw().begin(), s.raw().end());
  return bits;
}

std::vector<double> run_dcsweep(int threads, core::MixerMode mm) {
  runtime::ScopedPool pool(threads);
  const core::MixerConfig cfg = mixer_config(mm);
  // Factory overload: chunks solve on pool lanes, so an 8-thread run
  // genuinely exercises concurrent SolverSessions. The aliasing shared_ptr
  // keeps each chunk's whole mixer alive through its Circuit handle.
  const DcSweepResult res = dc_sweep(
      [&] {
        std::shared_ptr<core::TransistorMixer> m = core::build_transistor_mixer(cfg);
        DcSweepInstance inst;
        inst.circuit = std::shared_ptr<Circuit>(m, &m->circuit);
        inst.source = m->vdd;
        return inst;
      },
      1.1, 1.3, 17);
  std::vector<double> bits = res.values;
  for (const auto& s : res.solutions)
    bits.insert(bits.end(), s.raw().begin(), s.raw().end());
  return bits;
}

using Runner = std::vector<double> (*)(int, core::MixerMode);

void expect_parity(Runner run, core::MixerMode mm, const char* what) {
  const std::vector<double> serial = run(1, mm);
  ASSERT_FALSE(serial.empty()) << what;
  EXPECT_TRUE(same_bits(serial, run(8, mm))) << what << ": 8 threads deviate from 1";
}

TEST(SolverParity, OperatingPointActive) {
  expect_parity(&run_op, core::MixerMode::kActive, "op/active");
}

TEST(SolverParity, OperatingPointPassive) {
  expect_parity(&run_op, core::MixerMode::kPassive, "op/passive");
}

TEST(SolverParity, TransientActive) {
  expect_parity(&run_tran, core::MixerMode::kActive, "tran/active");
}

TEST(SolverParity, TransientPassive) {
  expect_parity(&run_tran, core::MixerMode::kPassive, "tran/passive");
}

TEST(SolverParity, PeriodicSteadyStateActive) {
  expect_parity(&run_pss, core::MixerMode::kActive, "pss/active");
}

TEST(SolverParity, DcSweepActive) {
  expect_parity(&run_dcsweep, core::MixerMode::kActive, "dcsweep/active");
}

#if RFMIX_OBS_ENABLED

// The engines must actually take the refactor path on these circuits —
// otherwise the parity checks above only compare cold analyses.
TEST(SolverParity, ReuseModeActuallyRefactors) {
  const std::uint64_t refactor0 = obs::counter_value("spice.lu.refactor");
  const std::uint64_t analyze0 = obs::counter_value("spice.lu.analyze");
  (void)run_tran(1, core::MixerMode::kActive);
  EXPECT_GT(obs::counter_value("spice.lu.refactor"), refactor0)
      << "transient Newton never refactored";
  EXPECT_GT(obs::counter_value("spice.lu.analyze"), analyze0);
}

// Every MOSFET evaluates its model once per Newton iteration inside its
// stamp, so spice.dev.evaluated moves by exactly MOSFETs x iterations.
TEST(SolverParity, EvaluatedCountsEveryMosfetEveryIteration) {
  const auto mixer = core::build_transistor_mixer(mixer_config(core::MixerMode::kActive));
  std::uint64_t mosfets = 0;
  for (const auto& dev : mixer->circuit.devices())
    if (dynamic_cast<const Mosfet*>(dev.get()) != nullptr) ++mosfets;
  ASSERT_GT(mosfets, 0u);
  const std::uint64_t eval0 = obs::counter_value("spice.dev.evaluated");
  const std::uint64_t iter0 = obs::counter_value("spice.newton.iterations");
  (void)run_tran(1, core::MixerMode::kActive);
  const std::uint64_t iterations = obs::counter_value("spice.newton.iterations") - iter0;
  EXPECT_GT(iterations, 0u);
  EXPECT_EQ(obs::counter_value("spice.dev.evaluated") - eval0, mosfets * iterations);
}

#endif  // RFMIX_OBS_ENABLED

// AC and noise factor through SweepLu: their complex-valued results ride
// the same contract. Each AC point must also equal a cold analysis of its
// own matrix, the path an analyze-every-time sweep would take.
TEST(SolverParity, AcAndNoiseSweepsMatchAcrossModes) {
  using Cplx = std::complex<double>;
  const std::vector<double> freqs = lin_space(1e6, 100e6, 12);
  auto run_ac_noise = [&](int threads) {
    runtime::ScopedPool pool(threads);
    auto mixer = core::build_transistor_mixer(mixer_config(core::MixerMode::kActive));
    const Solution op = dc_operating_point(mixer->circuit);
    const AcResult ac = ac_sweep(mixer->circuit, op, freqs);
    const NoiseResult noise =
        noise_analysis(mixer->circuit, op, mixer->if_p, mixer->if_m, freqs);
    std::vector<double> bits;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      const std::size_t n = ac.solutions[i].size();
      mathx::TripletMatrix<Cplx> y(n, n);
      mathx::VectorC b(n, Cplx{});
      assemble_ac(mixer->circuit, op, mathx::kTwoPi * freqs[i], 1e-12, y, b);
      EXPECT_TRUE(same_bits(ac.solutions[i],
                            mathx::SparseLu<Cplx>(mathx::CscMatrix<Cplx>(y)).solve(b)))
          << "AC point " << i << " deviates from a cold analysis";
      for (const auto& v : ac.solutions[i]) {
        bits.push_back(v.real());
        bits.push_back(v.imag());
      }
    }
    for (const auto& p : noise.points) bits.push_back(p.total_output_psd_v2_hz);
    return bits;
  };
  const auto serial = run_ac_noise(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_TRUE(same_bits(serial, run_ac_noise(8)));
}

// ----------------------------------------------- the factor boundary

// The 8-stage RC-coupled common-source ladder of BM_NewtonLadderTransient:
// its swinging stages make partial pivoting drift between samples.
void build_ladder(Circuit& c, int stages) {
  const auto vdd = c.node("vdd");
  const auto in = c.node("in");
  c.add<VoltageSource>("Vdd", vdd, kGround, Waveform::dc(1.2));
  c.add<VoltageSource>("Vin", in, kGround, Waveform::sine(0.05, 1e9, 0.0));
  NodeId prev = in;
  for (int i = 0; i < stages; ++i) {
    std::string n = "g";
    n += std::to_string(i);
    const auto g = c.node(n);
    n[0] = 'd';
    const auto d = c.node(n);
    n = std::to_string(i);
    c.add<Capacitor>("Cc" + n, prev, g, 1e-12);
    c.add<Resistor>("Rb1" + n, vdd, g, 200e3);
    c.add<Resistor>("Rb2" + n, g, kGround, 120e3);
    c.add<Mosfet>("M" + n, d, g, kGround, kGround, tech65::nmos(4e-6));
    c.add<Resistor>("Rl" + n, vdd, d, 2e3);
    c.add<Capacitor>("Cl" + n, d, kGround, 20e-15);
    prev = d;
  }
}

// Transient-mode Jacobians (with their right-hand sides) at every sample
// of the PSS orbit of `ckt` driven at period `period_s`.
void append_orbit_jacobians(Circuit& ckt, double period_s,
                            std::vector<mathx::TripletMatrix<double>>& gs,
                            std::vector<mathx::VectorD>& bs) {
  PssOptions opts;
  opts.samples_per_period = 16;
  opts.max_periods = 8;
  const PssResult pss = periodic_steady_state(ckt, period_s, opts);
  const std::size_t n = static_cast<std::size_t>(ckt.layout().size());
  StampParams sp;
  sp.mode = AnalysisMode::kTransient;
  sp.dt = period_s / opts.samples_per_period;
  sp.integrator = Integrator::kTrapezoidal;
  for (const Solution& x : pss.samples) {
    gs.emplace_back(n, n);
    bs.emplace_back(n, 0.0);
    assemble_real(ckt, x, sp, 1e-12, gs.back(), bs.back());
  }
}

// Restamp `g`'s entry sequence into the session's own triplets.
void restamp_from(SolverSession& session, const mathx::TripletMatrix<double>& g) {
  mathx::TripletMatrix<double>& t = session.restamp(g.rows());
  for (std::size_t k = 0; k < g.entry_count(); ++k)
    t.add(g.entries()[k].row, g.entries()[k].col, g.entries()[k].value);
}

TEST(SolverParity, SessionFactorsMatchColdAnalysis) {
  std::vector<mathx::TripletMatrix<double>> gs;
  std::vector<mathx::VectorD> bs;
  const core::MixerConfig cfg = mixer_config(core::MixerMode::kActive);
  auto mixer = core::build_transistor_mixer(cfg);
  append_orbit_jacobians(mixer->circuit, 1.0 / cfg.f_lo_hz, gs, bs);
  Circuit ladder;
  build_ladder(ladder, 8);
  append_orbit_jacobians(ladder, 1e-9, gs, bs);

#if RFMIX_OBS_ENABLED
  const std::uint64_t refactor0 = obs::counter_value("spice.lu.refactor");
  const std::uint64_t fallback0 = obs::counter_value("spice.lu.fallback");
  const std::uint64_t rebuild0 = obs::counter_value("spice.lu.pattern_rebuild");
#endif
  SolverSession session;
  for (std::size_t i = 0; i < gs.size(); ++i) {
    const mathx::SparseLu<double> cold{mathx::CscMatrix<double>(gs[i])};
    restamp_from(session, gs[i]);
    EXPECT_TRUE(same_bits(session.factor().solve(bs[i]), cold.solve(bs[i])))
        << "Jacobian " << i;
  }
#if RFMIX_OBS_ENABLED
  EXPECT_GT(obs::counter_value("spice.lu.refactor"), refactor0);
  EXPECT_GT(obs::counter_value("spice.lu.fallback"), fallback0);
  EXPECT_GT(obs::counter_value("spice.lu.pattern_rebuild"), rebuild0);
#endif
}

// A linear two-node stamp whose (row, col) sequence can be switched
// between Newton solves: shorter, longer, or one entry moved.
class SwitchableStamp : public Device {
 public:
  enum class Shape { kBase, kShorter, kLonger, kMoved };

  SwitchableStamp(NodeId a, NodeId b) : Device("Xswitch"), a_(a), b_(b) {}

  void set_shape(Shape shape) { shape_ = shape; }

  void stamp(RealStamper& s, const Solution&, const StampParams&) const override {
    const int ua = s.layout().node_unknown(a_);
    const int ub = s.layout().node_unknown(b_);
    s.add_entry(ua, ua, 2e-3);
    s.add_entry(ua, ub, -1e-3);
    if (shape_ == Shape::kMoved)
      s.add_entry(ub, ub, -1e-3);
    else
      s.add_entry(ub, ua, -1e-3);
    if (shape_ != Shape::kShorter) s.add_entry(ub, ub, 3e-3);
    if (shape_ == Shape::kLonger) s.add_entry(ua, ua, 5e-4);
  }

  void stamp_ac(ComplexStamper&, const Solution&, double) const override {}

 private:
  NodeId a_, b_;
  Shape shape_ = Shape::kBase;
};

// A session restamps its triplets in place; when a device's stamp sequence
// changes between solves, the session must rebuild its stamp map exactly
// once and still match a fresh session to the bit. The switched stamps sit
// mid-sequence, or last (no stamp after them, gmin off), where a shorter
// sequence only shows as entries left over at the end.
TEST(SolverParity, RestampRebuildsOnceWhenTheStampSequenceChanges) {
  using Shape = SwitchableStamp::Shape;
  for (const bool last : {false, true}) {
    for (const Shape shape : {Shape::kShorter, Shape::kLonger, Shape::kMoved}) {
      const std::string where =
          "shape " + std::to_string(static_cast<int>(shape)) + (last ? ", last" : ", mid");
      Circuit c;
      const NodeId in = c.node("in");
      const NodeId a = c.node("a");
      const NodeId b = c.node("b");
      c.add<VoltageSource>("V1", in, kGround, Waveform::dc(0.9));
      c.add<Resistor>("R1", in, a, 1e3);
      c.add<Diode>("D1", a, kGround);
      if (last) c.add<Resistor>("R2", b, kGround, 2e3);
      SwitchableStamp& sw = c.add<SwitchableStamp>(a, b);
      if (!last) c.add<Resistor>("R2", b, kGround, 2e3);
      const MnaLayout layout = c.finalize();
      const StampParams params;
      NewtonOptions opts;
      if (last) opts.gmin = 0.0;  // gmin stamps would follow the switched ones

      SolverSession warm;
      const NewtonResult start = solve_newton(c, Solution::zeros(layout), params, opts, &warm);
      ASSERT_TRUE(start.converged) << where;
      (void)solve_newton(c, start.solution, params, opts, &warm);  // restamps in place
      sw.set_shape(shape);
#if RFMIX_OBS_ENABLED
      const std::uint64_t rebuild0 = obs::counter_value("spice.lu.pattern_rebuild");
#endif
      const NewtonResult got = solve_newton(c, start.solution, params, opts, &warm);
#if RFMIX_OBS_ENABLED
      EXPECT_EQ(obs::counter_value("spice.lu.pattern_rebuild") - rebuild0, 1u) << where;
#endif
      SolverSession fresh;
      const NewtonResult want = solve_newton(c, start.solution, params, opts, &fresh);
      ASSERT_TRUE(want.converged) << where;
      EXPECT_GT(want.iterations, 1) << where;
      EXPECT_EQ(got.iterations, want.iterations) << where;
      EXPECT_TRUE(same_bits(got.solution.raw(), want.solution.raw())) << where;
    }
  }
}

std::array<std::atomic<int>, 4> g_sweep_steps;

void count_step(mathx::SweepStep step) { ++g_sweep_steps[static_cast<int>(step)]; }

int sweep_steps(mathx::SweepStep step) { return g_sweep_steps[static_cast<int>(step)]; }

using CplxTriplets = mathx::TripletMatrix<std::complex<double>>;

// One SweepLu over `ys` (point 0 primed serially, the rest in parallel):
// every factor's forward and transposed solves must equal a cold
// analysis of the same matrix.
void expect_sweep_matches_cold(const std::vector<CplxTriplets>& ys, int threads) {
  using Cplx = std::complex<double>;
  runtime::ScopedPool pool(threads);
  mathx::SweepLu<Cplx> sweep(&count_step);
  std::vector<char> same(ys.size(), 0);
  auto check = [&](std::size_t i) {
    mathx::VectorC b(ys[i].rows());
    for (std::size_t k = 0; k < b.size(); ++k) b[k] = {1.0 + static_cast<double>(k % 7), -0.5};
    const mathx::SparseLu<Cplx> lu = sweep.factor(ys[i]);
    const mathx::SparseLu<Cplx> cold{mathx::CscMatrix<Cplx>(ys[i])};
    same[i] = same_bits(lu.solve(b), cold.solve(b)) &&
              same_bits(lu.solve_transposed(b), cold.solve_transposed(b));
  };
  check(0);
  runtime::parallel_for(1, ys.size(), check);
  for (std::size_t i = 0; i < ys.size(); ++i)
    EXPECT_TRUE(same[i]) << "point " << i << " at " << threads << " threads";
}

npath::NpathSpec npath_spec() {
  npath::NpathSpec s;
  s.lo.phases = 4;
  s.lo.rise_frac = 0.02;
  s.lo.samples = 128;
  s.harmonics = 10;
  s.f_lo_hz = 1e9;
  s.zbb_r = 2e3;
  s.zbb_c = 25e-12;
  s.c_rf = 1e-13;
  return s;
}

TEST(SolverParity, SweepLuMatchesColdAnalysis) {
  using Cplx = std::complex<double>;
  // The mixer's AC matrices, 1 kHz to 1 THz: reactances overtake the
  // conductances across the grid, so pivots drift.
  auto mixer = core::build_transistor_mixer(mixer_config(core::MixerMode::kActive));
  const Solution op = dc_operating_point(mixer->circuit);
  const std::size_t n = static_cast<std::size_t>(mixer->circuit.layout().size());
  std::vector<CplxTriplets> ac;
  for (const double f : log_space(1e3, 1e12, 37)) {
    ac.emplace_back(n, n);
    mathx::VectorC b(n, Cplx{});
    assemble_ac(mixer->circuit, op, mathx::kTwoPi * f, 1e-12, ac.back(), b);
  }
  // An N-path LPTV block system over a grid through f = f_LO, where the
  // stamp drops its zero jwC triplets.
  const npath::NpathSpec spec = npath_spec();
  const npath::NpathCircuit nc = npath::build_npath_circuit(spec);
  const lptv::ConversionAnalysis an(nc.ckt, {spec.f_lo_hz, spec.harmonics});
  std::vector<CplxTriplets> blocks;
  for (const double f : lin_space(0.6e9, 1.4e9, 33)) blocks.push_back(an.block_system(f));
  ASSERT_NE(blocks[16].entry_count(), blocks[0].entry_count());

  const int refactor0 = sweep_steps(mathx::SweepStep::kRefactor);
  const int fallback0 = sweep_steps(mathx::SweepStep::kFallback);
  for (const int threads : {1, 8}) {
    expect_sweep_matches_cold(ac, threads);
    expect_sweep_matches_cold(blocks, threads);
  }
  EXPECT_GT(sweep_steps(mathx::SweepStep::kRefactor), refactor0);
  EXPECT_GT(sweep_steps(mathx::SweepStep::kFallback), fallback0);
}

}  // namespace
}  // namespace rfmix::spice
