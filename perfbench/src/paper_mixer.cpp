// paper_mixer: the reproduction's own artifact set. One operation is one
// pass over every engine in both modes: transistor transient+FFT gain and
// two-tone IIP3 (Table I / Fig. 10), PSS+PAC gain with PNOISE NF, and the
// LPTV Fig. 8 gain-vs-RF and Fig. 9 NF-vs-IF sweeps. The seed draws the
// two-tone levels and the sweep grid points inside the paper's bands; the
// anchor points (2.405 GHz RF, 5 MHz IF) are in every pass and checked.
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/circuits.hpp"
#include "core/lptv_model.hpp"
#include "core/measurements.hpp"
#include "core/pac_transistor.hpp"
#include "mathx/sparse.hpp"
#include "rf/twotone.hpp"
#include "runtime/thread_pool.hpp"
#include "spice/mna.hpp"
#include "spice/op.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rfmix;
using core::MixerConfig;
using core::MixerMode;

constexpr double kIfHz = 5e6;
constexpr int kSweepPoints = 6;  // seeded points per sweep, besides the anchor
// Anchors per mode (active, passive): LPTV gain @ 2.405 GHz and NF @ 5 MHz.
constexpr double kAnchorGainDb[2] = {29.1, 25.6};
constexpr double kAnchorNfDb[2] = {7.6, 10.2};
constexpr double kAnchorTolDb = 0.1;
constexpr double kPacVsTranTolDb = 0.3;
// One cold and one warm pass at least; a run may outlast --seconds.
constexpr int kMinOps = 2;
const char* const kModeName[2] = {"active", "passive"};

struct Grid {
  double pin_dbm[2] = {};       // two-tone levels of the IIP3 fit
  std::vector<double> f_rf_hz;  // Fig. 8 points, the 2.405 GHz anchor first
  std::vector<double> f_if_hz;  // Fig. 9 points, the 5 MHz anchor first
};

Grid draw_grid(Rng& rng) {
  Grid g;
  g.pin_dbm[0] = rng.uniform(-50.0, -44.0);
  g.pin_dbm[1] = g.pin_dbm[0] + 10.0;
  g.f_rf_hz = {2.405e9};
  g.f_if_hz = {kIfHz};
  for (int i = 0; i < kSweepPoints; ++i) {
    g.f_rf_hz.push_back(rng.uniform(0.5e9, 7e9));
    g.f_if_hz.push_back(rng.log_uniform(10e3, 50e6));
  }
  return g;
}

MixerConfig mode_config(int m) {
  MixerConfig cfg;
  cfg.mode = m == 0 ? MixerMode::kActive : MixerMode::kPassive;
  return cfg;
}

core::TransientMeasureOptions tran_options(int samples_per_lo) {
  core::TransientMeasureOptions o;
  o.grid_hz = 1e6;
  o.grid_periods = 1;
  o.settle_periods = 0.4;
  o.samples_per_lo = samples_per_lo;
  return o;
}

struct PassTimes {
  double tran_s = 0.0;
  double pss_pac_s = 0.0;
  double gain_sweep_s = 0.0;
  double nf_sweep_s = 0.0;
  double lptv_s() const { return gain_sweep_s + nf_sweep_s; }
  double total_s() const { return tran_s + pss_pac_s + lptv_s(); }
};

void check_near(Result& r, const std::string& what, double got, double want, double tol) {
  if (!(std::abs(got - want) <= tol))
    r.fail(what + " = " + std::to_string(got) + ", want " + std::to_string(want) + " +- " +
           std::to_string(tol));
}

PassTimes artifact_pass(const Grid& g, Result& r) {
  PassTimes t;
  double tran_gain[2], pac_gain[2], iip3[2];
  for (int m = 0; m < 2; ++m) {
    const MixerConfig cfg = mode_config(m);
    const std::string mode = kModeName[m];

    t.tran_s += timed("tran", [&] {
      MixerConfig tcfg = cfg;
      tcfg.rf_series_r = 50.0;  // the PAC harness's port, so the two compare
      timed("core.measure_conversion_gain_db", [&] {
        auto mixer = core::build_transistor_mixer(tcfg);
        tran_gain[m] = core::measure_conversion_gain_db(*mixer, kIfHz, 2e-3, tran_options(20));
      });
      std::vector<rf::ToneLevels> points;
      for (const double pin : g.pin_dbm) {
        timed("core.measure_two_tone_point", [&] {
          auto mixer = core::build_transistor_mixer(cfg);
          points.push_back(
              core::measure_two_tone_point(*mixer, pin, 5e6, 6e6, tran_options(16)));
        });
      }
      iip3[m] = rf::extract_intercepts(points).iip3_dbm;
    });

    t.pss_pac_s += timed("pss_pac", [&] {
      core::PacResult pac;
      core::PnoiseResult pn;
      timed("core.pac_conversion_gain", [&] { pac = core::pac_conversion_gain(cfg, kIfHz); });
      timed("core.pac_nf_dsb", [&] { pn = core::pac_nf_dsb(cfg, kIfHz); });
      pac_gain[m] = pac.conversion_gain_db;
      if (!pac.pss_converged || !pn.pss_converged) r.fail(mode + " PSS did not converge");
      if (!std::isfinite(pn.nf_dsb_db) || pn.nf_dsb_db <= 0.0)
        r.fail(mode + " PNOISE NF not finite and positive");
    });

    std::vector<double> gains;
    std::vector<core::LptvNfPoint> nfs;
    t.gain_sweep_s += timed("core.lptv_gain_vs_rf_sweep_db", [&] {
      gains = core::lptv_gain_vs_rf_sweep_db(cfg, g.f_rf_hz, kIfHz);
    });
    t.nf_sweep_s += timed("core.lptv_nf_sweep", [&] { nfs = core::lptv_nf_sweep(cfg, g.f_if_hz); });
    check_near(r, mode + " LPTV gain @ 2.405 GHz", gains.at(0), kAnchorGainDb[m], kAnchorTolDb);
    check_near(r, mode + " LPTV NF @ 5 MHz", nfs.at(0).nf_dsb_db, kAnchorNfDb[m], kAnchorTolDb);
    for (std::size_t i = 0; i < gains.size(); ++i)
      if (!std::isfinite(gains[i]) || !std::isfinite(nfs.at(i).nf_dsb_db))
        r.fail(mode + " LPTV sweep point not finite");
    check_near(r, mode + " PAC vs transient gain", pac_gain[m], tran_gain[m], kPacVsTranTolDb);
  }
  if (!(iip3[1] > iip3[0])) r.fail("transistor IIP3: passive does not beat active");
  return t;
}

/// Per-call costs on the mixer's transient Jacobian (tens of unknowns):
/// one assemble_real in transient mode, one LU refactor, one solve.
void transient_jacobian_costs(Result& r) {
  MixerConfig cfg = mode_config(0);
  cfg.rf_series_r = 50.0;
  auto mixer = core::build_transistor_mixer(cfg);
  spice::Circuit& ckt = mixer->circuit;
  const spice::Solution op = spice::dc_operating_point(ckt);
  spice::StampParams sp;
  sp.mode = spice::AnalysisMode::kTransient;
  sp.dt = 1.0 / (cfg.f_lo_hz * 20.0);
  sp.integrator = spice::Integrator::kTrapezoidal;
  const std::size_t n = static_cast<std::size_t>(ckt.layout().size());

  constexpr int kReps = 2000;
  mathx::TripletMatrix<double> g(n, n);
  mathx::VectorD b(n, 0.0);
  std::vector<double> assemble_us, refactor_us, solve_us;
  for (int i = 0; i < kReps; ++i) {
    g.clear();
    b.assign(n, 0.0);
    const auto t0 = Clock::now();
    spice::assemble_real(ckt, op, sp, 1e-12, g, b);
    assemble_us.push_back(seconds_since(t0) * 1e6);
  }
  mathx::TripletCscMap<double> map;
  map.build(g);
  mathx::CscMatrix<double> csc;
  map.fill(g, csc);
  mathx::SparseLuSymbolic<double> sym;
  mathx::SparseLu<double> lu(csc, sym);
  double checksum = 0.0;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    const bool ok = lu.refactor_from(sym, csc);
    refactor_us.push_back(seconds_since(t0) * 1e6);
    if (!ok) {
      r.fail("transient Jacobian refactor fell back");
      return;
    }
    const auto t1 = Clock::now();
    checksum += lu.solve(b)[0];
    solve_us.push_back(seconds_since(t1) * 1e6);
  }
  if (!std::isfinite(checksum)) r.fail("transient Jacobian solve not finite");
  r.add("spice.assemble_us", median(assemble_us), "us");
  r.add("mathx.lu_refactor_us", median(refactor_us), "us");
  r.add("mathx.lu_solve_us", median(solve_us), "us");
}

}  // namespace

void setup_paper_mixer(std::uint64_t seed) {
  runtime::ThreadPool::global();
  Rng rng(mix_seed(seed, 1));
  (void)draw_grid(rng);
}

Result run_paper_mixer(const Options& opt) {
  Result r;
  Rng rng(mix_seed(opt.seed, 1));
  if (!opt.trace) {
    const double setup_s = library_setup_s(opt, kSetupProbes);
    setup_paper_mixer(opt.seed);
    Grid g;
    std::vector<double> cold_ms, warm_ms;
    double cpu_s = 0.0;
    const SpeedSampler sampler;
    const auto start = Clock::now();
    for (int i = 0; i < kMinOps || seconds_since(start) < opt.seconds; ++i) {
      if (is_cold_op(i)) g = draw_grid(rng);
      run_op(r, [&] {
        double wall_s = 0.0, probe_us = 0.0;
        const double s =
            ref_cpu_timed([&] { wall_s = artifact_pass(g, r).total_s(); }, &probe_us);
        cpu_s += s;
        record_op(i, s * 1e3, wall_s * 1e3, probe_us, cold_ms, warm_ms);
      });
    }
    add_end_to_end(r, setup_s, peak_rss_mb_self(), cold_ms, warm_ms,
                   static_cast<double>(r.attempted), cpu_s);
    return r;
  }

  // Traced: the overhead pairs over one grid. The per-layer numbers (wall
  // times) come from the last traced pass, its counters from that pass alone.
  const Grid g = draw_grid(rng);
  for (const double v : g.pin_dbm) r.inputs.add(v);
  for (const double v : g.f_rf_hz) r.inputs.add(v);
  for (const double v : g.f_if_hz) r.inputs.add(v);
  PassTimes t;
  Telemetry d;
  std::optional<SpeedSampler> sampler(std::in_place);
  const double overhead_pct = trace_overhead_pct([&](bool traced) {
    double s = 0.0;
    run_op(r, [&] {
      const Telemetry before = Telemetry::now();
      PassTimes pass;
      s = ref_cpu_timed([&] { timed("paper_mixer.pass", [&] { pass = artifact_pass(g, r); }); });
      if (traced) {
        t = pass;
        d = Telemetry::now().since(before);
      }
    });
    return s;
  });
  sampler.reset();  // the per-call costs below are wall times of microseconds
  obs::trace::enable();
  run_op(r, [&] { timed("transient_jacobian", [&] { transient_jacobian_costs(r); }); });
  obs::trace::disable();

  r.add("tran_s", t.tran_s, "s");
  r.add("pss_pac_s", t.pss_pac_s, "s");
  r.add("lptv_sweep_s", t.lptv_s(), "s");
  r.add("trace.overhead_pct", overhead_pct, "%");
  r.add("spice.tran_s", d.timer_s("spice.tran"), "s");
  r.add("spice.pss_s", d.timer_s("spice.pss"), "s");
  // Program-internal timers: the conversion-matrix split inside core::pac_*.
  const double matrix_solve_s = d.timer_s("lptv.matrix.solve");
  const double matrix_noise_s = d.timer_s("lptv.matrix.noise");
  r.add("lptv.matrix.solve_s", matrix_solve_s, "s");
  r.add("lptv.matrix.noise_s", matrix_noise_s, "s");
  // Self time of the core PAC/PNOISE layer: its calls minus PSS and the
  // conversion-matrix solves inside them.
  r.add("core.pac_s", t.pss_pac_s - d.timer_s("spice.pss") - matrix_solve_s - matrix_noise_s,
        "s");
  r.add("core.lptv_gain_sweep_s", t.gain_sweep_s, "s");
  r.add("core.lptv_nf_sweep_s", t.nf_sweep_s, "s");
  add_counter_metrics(d, r);
  return r;
}

}  // namespace perfbench
