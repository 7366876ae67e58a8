// Bit-exactness harness for the solver (docs/solver.md). Every factor an
// engine uses must be byte-identical to a fresh SparseLu(a), the cold
// analysis that every first factor and every fallback runs: the reference
// tests pin SolverSession and the AC/noise point loop against it at the
// factor boundary, and the engine tests pin whole runs at 1 and 8 threads.
// The comparisons are memcmp over raw vectors — not EXPECT_DOUBLE_EQ —
// because a replayed factor is only trustworthy if it repeats the exact
// arithmetic of the analysis, signed zeros included.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "core/circuits.hpp"
#include "core/lptv_model.hpp"
#include "lptv/lptv.hpp"
#include "mathx/units.hpp"
#include "npath/zin.hpp"
#include "obs/obs.hpp"
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

// The PSD of every noise source at the output, then their total, summed
// exactly as noise_analysis sums them over the adjoint solution `yv`.
std::vector<double> noise_psds(const std::vector<NoiseSource>& sources, const MnaLayout& layout,
                               double f, const mathx::VectorC& yv) {
  std::vector<double> psds;
  double total = 0.0;
  for (const auto& src : sources) {
    const int sp = layout.node_unknown(src.p);
    const int sm = layout.node_unknown(src.m);
    std::complex<double> transfer{};
    if (sp >= 0) transfer -= yv[static_cast<std::size_t>(sp)];
    if (sm >= 0) transfer += yv[static_cast<std::size_t>(sm)];
    psds.push_back(src.psd(f) * std::norm(transfer));
    total += psds.back();
  }
  psds.push_back(total);
  return psds;
}

// AC and noise share one point loop: point 0 analyzes, the rest refactor
// against its symbolic on the pool. From 1 kHz to 1 THz the reactances
// overtake the conductances, so pivots drift and both the refactor and the
// fallback run. Every AC solve and every noise adjoint solve must equal a
// cold analysis of its point's matrix, at 1 and at 8 threads.
TEST(SolverParity, AcAndNoiseSweepsMatchAcrossModes) {
  using Cplx = std::complex<double>;
  const std::vector<double> freqs = log_space(1e3, 1e12, 37);
  std::uint64_t refactors = 0, fallbacks = 0;
  auto run_ac_noise = [&](int threads) {
    runtime::ScopedPool pool(threads);
    auto mixer = core::build_transistor_mixer(mixer_config(core::MixerMode::kActive));
    Circuit& ckt = mixer->circuit;
    const Solution op = dc_operating_point(ckt);
    // The operating point's own Newton refactors and falls back too, so
    // only the sweeps' counts are kept.
    const std::uint64_t refactor0 = obs::counter_value("spice.lu.refactor");
    const std::uint64_t fallback0 = obs::counter_value("spice.lu.fallback");
    const AcResult ac = ac_sweep(ckt, op, freqs);
    const NoiseResult noise = noise_analysis(ckt, op, mixer->if_p, mixer->if_m, freqs);
    refactors += obs::counter_value("spice.lu.refactor") - refactor0;
    fallbacks += obs::counter_value("spice.lu.fallback") - fallback0;
    const MnaLayout layout = ckt.layout();
    const std::size_t n = static_cast<std::size_t>(layout.size());
    std::vector<NoiseSource> sources;
    for (const auto& dev : ckt.devices()) dev->append_noise(sources, op);
    mathx::VectorC e_out(n, Cplx{});
    e_out[static_cast<std::size_t>(layout.node_unknown(mixer->if_p))] += 1.0;
    e_out[static_cast<std::size_t>(layout.node_unknown(mixer->if_m))] -= 1.0;
    std::vector<double> bits;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      mathx::TripletMatrix<Cplx> y(n, n);
      mathx::VectorC b(n, Cplx{});
      assemble_ac(ckt, op, mathx::kTwoPi * freqs[i], 1e-12, y, b);
      const mathx::SparseLu<Cplx> cold{mathx::CscMatrix<Cplx>(y)};
      EXPECT_TRUE(same_bits(ac.solutions[i], cold.solve(b)))
          << "AC point " << i << " at " << threads << " threads";
      std::vector<double> got;
      for (const auto& c : noise.points[i].contributions) got.push_back(c.output_psd_v2_hz);
      got.push_back(noise.points[i].total_output_psd_v2_hz);
      EXPECT_TRUE(same_bits(got, noise_psds(sources, layout, freqs[i],
                                            cold.solve_transposed(e_out))))
          << "noise point " << i << " at " << threads << " threads";
      for (const auto& v : ac.solutions[i]) {
        bits.push_back(v.real());
        bits.push_back(v.imag());
      }
      bits.insert(bits.end(), got.begin(), got.end());
    }
    return bits;
  };
  const auto serial = run_ac_noise(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_TRUE(same_bits(serial, run_ac_noise(8)));
#if RFMIX_OBS_ENABLED
  EXPECT_GT(refactors, 0u);
  EXPECT_GT(fallbacks, 0u);
#endif
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

// The AC/noise point loop at the factor boundary (the name dates from when
// its policy was a mathx type). Over the mixer's AC matrices from 1 kHz to
// 1 THz pivots drift, so both the refactor and the fallback run; every
// point's factor must solve a generic right-hand side, forward and
// transposed, bit-identically to a cold analysis of its own matrix, at 1
// and at 8 threads.
TEST(SolverParity, SweepLuMatchesColdAnalysis) {
  using Cplx = std::complex<double>;
  auto mixer = core::build_transistor_mixer(mixer_config(core::MixerMode::kActive));
  const Solution op = dc_operating_point(mixer->circuit);
  const Circuit& ckt = mixer->circuit;
  const std::vector<double> freqs = log_space(1e3, 1e12, 37);
  const std::size_t n = static_cast<std::size_t>(ckt.layout().size());
  mathx::VectorC rhs(n);
  for (std::size_t k = 0; k < n; ++k) rhs[k] = {1.0 + static_cast<double>(k % 7), -0.5};
#if RFMIX_OBS_ENABLED
  const std::uint64_t refactor0 = obs::counter_value("spice.lu.refactor");
  const std::uint64_t fallback0 = obs::counter_value("spice.lu.fallback");
#endif
  for (const int threads : {1, 8}) {
    runtime::ScopedPool pool(threads);
    std::vector<char> same(freqs.size(), 0);
    auto check = [&](std::size_t i, const mathx::SparseLu<Cplx>& lu, const mathx::VectorC& b) {
      mathx::TripletMatrix<Cplx> y(n, n);
      mathx::VectorC want_b(n, Cplx{});
      assemble_ac(ckt, op, mathx::kTwoPi * freqs[i], 1e-12, y, want_b);
      const mathx::SparseLu<Cplx> cold{mathx::CscMatrix<Cplx>(y)};
      same[i] = same_bits(b, want_b) && same_bits(lu.solve(rhs), cold.solve(rhs)) &&
                same_bits(lu.solve_transposed(rhs), cold.solve_transposed(rhs));
    };
    for_each_ac_point(ckt, op, freqs, 1e-12, check);
    for (std::size_t i = 0; i < freqs.size(); ++i)
      EXPECT_TRUE(same[i]) << "point " << i << " at " << threads << " threads";
  }
#if RFMIX_OBS_ENABLED
  EXPECT_GT(obs::counter_value("spice.lu.refactor"), refactor0);
  EXPECT_GT(obs::counter_value("spice.lu.fallback"), fallback0);
#endif
}

using CplxTriplets = mathx::TripletMatrix<std::complex<double>>;

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

// The LPTV noise solve runs the block system's own LU transposed. The
// reference is the path it replaced: a cold factorization of A^T, stamped
// entry by entry in A's arrival order.
void expect_transposed_solve_matches_transposed_factor(const CplxTriplets& a,
                                                       const char* system, double f_hz) {
  using Cplx = std::complex<double>;
  std::string what = system;
  what += " at ";
  what += std::to_string(f_hz);
  what += " Hz";
  CplxTriplets at(a.cols(), a.rows());
  for (const auto& t : a.entries()) at.add(t.col, t.row, t.value);
  std::vector<Cplx> e(a.rows());
  for (std::size_t k = 0; k < e.size(); ++k)
    e[k] = {1.0 + static_cast<double>(k % 5), 0.25 * static_cast<double>(k % 3)};
  const std::vector<Cplx> y =
      mathx::SparseLu<Cplx>(mathx::CscMatrix<Cplx>(a)).solve_transposed(e);
  const std::vector<Cplx> ref = mathx::SparseLu<Cplx>(mathx::CscMatrix<Cplx>(at)).solve(e);
  ASSERT_EQ(y.size(), ref.size()) << what;
  double scale = 0.0, worst = 0.0;
  for (std::size_t k = 0; k < y.size(); ++k) {
    scale = std::max(scale, std::abs(ref[k]));
    worst = std::max(worst, std::abs(y[k] - ref[k]));
  }
  EXPECT_GT(scale, 0.0) << what;
  EXPECT_LE(worst, 1e-12 * scale) << what;
}

TEST(SolverParity, LptvTransposedSolveMatchesTransposedFactor) {
  for (const core::MixerMode mode : {core::MixerMode::kActive, core::MixerMode::kPassive}) {
    const core::MixerConfig cfg = mixer_config(mode);
    const auto model = core::build_lptv_mixer(cfg);
    const lptv::ConversionAnalysis an(model->circuit, {cfg.f_lo_hz, 8});
    for (const double f : {30e3, 5e6})
      expect_transposed_solve_matches_transposed_factor(an.block_system(f),
                                                        frontend::mode_name(mode), f);
  }
  const npath::NpathSpec spec = npath_spec();
  const npath::NpathCircuit nc = npath::build_npath_circuit(spec);
  const lptv::ConversionAnalysis an(nc.ckt, {spec.f_lo_hz, spec.harmonics});
  for (const double f : lin_space(0.6e9, 1.4e9, 33))
    expect_transposed_solve_matches_transposed_factor(an.block_system(f),
                                                      "4-phase N-path", f);
}

}  // namespace
}  // namespace rfmix::spice
