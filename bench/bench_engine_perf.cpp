// Engine micro-benchmarks (google-benchmark): the computational kernels
// behind every reproduction bench — dense/sparse LU, FFT, Newton DC solves,
// transient stepping and LPTV conversion-matrix assembly/solve.
#include <benchmark/benchmark.h>

#include <chrono>

#include "core/circuits.hpp"
#include "core/lptv_model.hpp"
#include "mathx/fft.hpp"
#include "mathx/lu.hpp"
#include "mathx/rng.hpp"
#include "mathx/sparse.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_sources.hpp"
#include "spice/mna.hpp"
#include "spice/montecarlo.hpp"
#include "spice/mosfet.hpp"
#include "spice/op.hpp"
#include "spice/pss.hpp"
#include "spice/solver.hpp"
#include "spice/tech65.hpp"
#include "spice/tran.hpp"

namespace {

using namespace rfmix;

void BM_DenseLuSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  mathx::Rng rng(1);
  mathx::MatrixD a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    a(i, i) += 6.0;
  }
  mathx::VectorD b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mathx::lu_solve(a, b));
  }
}
BENCHMARK(BM_DenseLuSolve)->Arg(16)->Arg(64)->Arg(128);

void BM_SparseLuSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  mathx::Rng rng(2);
  mathx::TripletMatrix<double> t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 6.0 + rng.uniform());
    for (int k = 0; k < 4; ++k) t.add(i, rng.uniform_index(n), rng.normal() * 0.3);
  }
  const mathx::CscMatrix<double> a(t);
  mathx::VectorD b(n, 1.0);
  for (auto _ : state) {
    mathx::SparseLu<double> lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_SparseLuSolve)->Arg(128)->Arg(512)->Arg(1024);

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  mathx::Rng rng(3);
  std::vector<mathx::Complex> x(n);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  for (auto _ : state) {
    auto y = x;
    mathx::fft(y);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(16384)->Arg(100000);  // last one hits Bluestein

void BM_MixerOperatingPoint(benchmark::State& state) {
  for (auto _ : state) {
    core::MixerConfig cfg;
    cfg.mode = state.range(0) == 0 ? core::MixerMode::kActive : core::MixerMode::kPassive;
    auto mixer = core::build_transistor_mixer(cfg);
    benchmark::DoNotOptimize(spice::dc_operating_point(mixer->circuit));
  }
}
BENCHMARK(BM_MixerOperatingPoint)->Arg(0)->Arg(1);

// A Newton-heavy transient: hundreds of factorizations on one unchanging
// sparsity pattern, analyzed once and refactored per Newton iteration.
void BM_MixerTransientSteps(benchmark::State& state) {
  core::MixerConfig cfg;
  cfg.mode = core::MixerMode::kActive;
  auto mixer = core::build_transistor_mixer(cfg);
  const double dt = 1.0 / (cfg.f_lo_hz * 16);
  long steps = 0;
  for (auto _ : state) {
    auto result = spice::transient(mixer->circuit, 200 * dt, dt,
                                   {{mixer->if_p, mixer->if_m, "if"}});
    steps += 200;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_MixerTransientSteps);

void BM_MixerPssPeriods(benchmark::State& state) {
  core::MixerConfig cfg;
  cfg.mode = core::MixerMode::kActive;
  for (auto _ : state) {
    auto mixer = core::build_transistor_mixer(cfg);
    spice::PssOptions opts;
    opts.samples_per_period = 32;
    opts.max_periods = 4;
    opts.min_periods = 2;
    auto result = spice::periodic_steady_state(mixer->circuit, 1.0 / cfg.f_lo_hz, opts);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MixerPssPeriods);

// The raw kernel behind the engine ratio: numeric refactorization against a
// pinned symbolic vs a from-scratch analyzing factorization of the same
// matrix (pattern discovery + pivot search).
void BM_SparseLuRefactor(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  mathx::Rng rng(2);
  mathx::TripletMatrix<double> t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 6.0 + rng.uniform());
    for (int k = 0; k < 4; ++k) t.add(i, rng.uniform_index(n), rng.normal() * 0.3);
  }
  const mathx::CscMatrix<double> a(t);
  mathx::SparseLuSymbolic<double> sym;
  const mathx::SparseLu<double> analyzed(a, sym);
  mathx::SparseLu<double> lu;
  mathx::VectorD b(n, 1.0);
  for (auto _ : state) {
    const bool ok = lu.refactor_from(sym, a);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_SparseLuRefactor)->Arg(128)->Arg(512)->Arg(1024);

// A warmed SolverSession Newton iteration on the active mixer's transient
// Jacobian (the per-iteration work of the paper_mixer transient), at a
// fixed operating point so every iteration repeats the same values.
struct MixerTransientJacobian {
  std::unique_ptr<core::TransistorMixer> mixer;
  spice::Solution op;
  spice::StampParams sp;
  std::size_t n = 0;

  MixerTransientJacobian() {
    core::MixerConfig cfg;
    cfg.mode = core::MixerMode::kActive;
    cfg.rf_series_r = 50.0;
    mixer = core::build_transistor_mixer(cfg);
    op = spice::dc_operating_point(mixer->circuit);
    sp.mode = spice::AnalysisMode::kTransient;
    sp.dt = 1.0 / (cfg.f_lo_hz * 20.0);
    sp.integrator = spice::Integrator::kTrapezoidal;
    n = static_cast<std::size_t>(mixer->circuit.layout().size());
  }
};

void BM_SessionNewtonIteration(benchmark::State& state) {
  const MixerTransientJacobian j;
  spice::SolverSession session;
  mathx::VectorD x;
  for (auto _ : state) {
    mathx::TripletMatrix<double>& g = session.restamp(j.n);
    spice::assemble_real(j.mixer->circuit, j.op, j.sp, 1e-12, g, session.rhs());
    session.factor().solve(session.rhs(), x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SessionNewtonIteration);

// The same iteration timed by stage, on the mathx objects a SolverSession
// holds, in the order its restamp() and factor() run them: restamp
// (assemble_real into the recorded triplets), fill (triplet -> CSC through
// the stamp map), refactor (the symbolic's structural replay, repair mode)
// and solve. Counters give each stage's mean time per iteration [us].
void BM_SessionNewtonStages(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const MixerTransientJacobian j;
  mathx::TripletMatrix<double> g(j.n, j.n);
  mathx::VectorD b(j.n, 0.0), x;
  spice::assemble_real(j.mixer->circuit, j.op, j.sp, 1e-12, g, b);
  (void)g.finish_restamp();
  mathx::TripletCscMap<double> map;
  map.build(g);
  mathx::CscMatrix<double> csc;
  map.fill(g, csc);
  mathx::SparseLuSymbolic<double> sym;
  mathx::SparseLu<double> lu(csc, sym);
  double restamp_s = 0.0, fill_s = 0.0, refactor_s = 0.0, solve_s = 0.0;
  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  for (auto _ : state) {
    const auto t0 = Clock::now();
    g.restamp();
    b.assign(j.n, 0.0);
    spice::assemble_real(j.mixer->circuit, j.op, j.sp, 1e-12, g, b);
    const bool same = g.finish_restamp();
    const auto t1 = Clock::now();
    map.fill(g, csc);
    const auto t2 = Clock::now();
    const bool replayed = lu.refactor_from(sym, csc, 0.0, &sym);
    const auto t3 = Clock::now();
    lu.solve(b, x);
    const auto t4 = Clock::now();
    if (!same || !replayed) {
      state.SkipWithError("the stamp pattern or the pivots changed");
      break;
    }
    restamp_s += seconds(t0, t1);
    fill_s += seconds(t1, t2);
    refactor_s += seconds(t2, t3);
    solve_s += seconds(t3, t4);
    benchmark::DoNotOptimize(x.data());
  }
  using benchmark::Counter;
  state.counters["restamp_us"] = Counter(restamp_s * 1e6, Counter::kAvgIterations);
  state.counters["fill_us"] = Counter(fill_s * 1e6, Counter::kAvgIterations);
  state.counters["refactor_us"] = Counter(refactor_s * 1e6, Counter::kAvgIterations);
  state.counters["solve_us"] = Counter(solve_s * 1e6, Counter::kAvgIterations);
}
BENCHMARK(BM_SessionNewtonStages);

// Solver scaling probe: an N-stage RC-coupled common-source ladder
// (2N+4 unknowns) under a sine drive. Unlike the mixer, whose Jacobian
// magnitudes barely reorder between steps, the swinging ladder makes
// partial pivoting drift often — this is the case the drift-repair path
// exists for (without it, a refactor pays a wasted partial replay plus a
// full re-analysis per drift and loses to analyzing every time at large N).
// Arg: stages.
void BM_NewtonLadderTransient(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    spice::Circuit c;
    const auto vdd = c.node("vdd");
    const auto in = c.node("in");
    c.add<spice::VoltageSource>("Vdd", vdd, spice::kGround, spice::Waveform::dc(1.2));
    c.add<spice::VoltageSource>("Vin", in, spice::kGround,
                                spice::Waveform::sine(0.05, 1e9, 0.0));
    spice::NodeId prev = in;
    for (int i = 0; i < stages; ++i) {
      const std::string n = std::to_string(i);
      const auto g = c.node("g" + n);
      const auto d = c.node("d" + n);
      c.add<spice::Capacitor>("Cc" + n, prev, g, 1e-12);
      c.add<spice::Resistor>("Rb1" + n, vdd, g, 200e3);
      c.add<spice::Resistor>("Rb2" + n, g, spice::kGround, 120e3);
      c.add<spice::Mosfet>("M" + n, d, g, spice::kGround, spice::kGround,
                           spice::tech65::nmos(4e-6));
      c.add<spice::Resistor>("Rl" + n, vdd, d, 2e3);
      c.add<spice::Capacitor>("Cl" + n, d, spice::kGround, 20e-15);
      prev = d;
    }
    const double dt = 1.0 / (1e9 * 16);
    auto result = spice::transient(c, 100 * dt, dt, {{prev, spice::kGround, "out"}});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NewtonLadderTransient)->Arg(8)->Arg(64);

void BM_LptvConversionGain(benchmark::State& state) {
  core::MixerConfig cfg;
  cfg.mode = core::MixerMode::kPassive;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lptv_conversion_gain_db(cfg, 5e6));
  }
}
BENCHMARK(BM_LptvConversionGain);

void BM_LptvNoise(benchmark::State& state) {
  core::MixerConfig cfg;
  cfg.mode = core::MixerMode::kPassive;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lptv_nf_dsb(cfg, 5e6));
  }
}
BENCHMARK(BM_LptvNoise);

// ---- runtime pool kernels ------------------------------------------------

// Pure scheduling overhead: a parallel_for over trivial bodies, at the
// pool's thread count (arg) — the cost floor every parallel analysis pays.
void BM_ParallelForOverhead(benchmark::State& state) {
  runtime::ScopedPool scoped(static_cast<int>(state.range(0)));
  std::vector<double> out(4096);
  for (auto _ : state) {
    runtime::parallel_for(0, out.size(),
                          [&](std::size_t i) { out[i] = static_cast<double>(i) * 0.5; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * 4096);
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(2)->Arg(4);

// Monte-Carlo mismatch trials through the deterministic driver: the kernel
// behind bench_iip2_mismatch, with a cheap (operating-point) trial body.
void BM_MonteCarloMismatchTrials(benchmark::State& state) {
  runtime::ScopedPool scoped(static_cast<int>(state.range(0)));
  core::MixerConfig cfg;
  cfg.mode = core::MixerMode::kPassive;
  for (auto _ : state) {
    const auto vdd_currents = spice::tech65::monte_carlo_trials(
        8, 42u, [&](int, mathx::Rng& rng) {
          core::DeviceVariation var;
          var.mismatch_rng = &rng;
          auto mixer = core::build_transistor_mixer(cfg, var);
          const spice::Solution op = spice::dc_operating_point(mixer->circuit);
          return mixer->vdd->current(op);
        });
    benchmark::DoNotOptimize(vdd_currents);
  }
}
BENCHMARK(BM_MonteCarloMismatchTrials)->Arg(1)->Arg(4);

// Fig. 9 batch kernel: one NF point per pool lane (each point = one LPTV
// factorization pair since ConversionAnalysis::factor).
void BM_LptvNfSweepBatch(benchmark::State& state) {
  runtime::ScopedPool scoped(static_cast<int>(state.range(0)));
  core::MixerConfig cfg;
  cfg.mode = core::MixerMode::kPassive;
  const std::vector<double> ifs = {100e3, 1e6, 5e6, 10e6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lptv_nf_sweep(cfg, ifs));
  }
}
BENCHMARK(BM_LptvNfSweepBatch)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
