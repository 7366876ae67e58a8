// NPATH: mixer-first input impedance through the N-path front-end
// subsystem, plus the determinism and service contracts the subsystem
// ships with.
//
// Four sections:
//   1. Zin peak vs LO frequency — the translated-impedance peak must sit
//      at f_LO and move with it (the defining N-path property).
//   2. Q vs baseband resistance — the RF bandwidth is the baseband pole,
//      so Q scales with Zbb.
//   3. Harmonic re-radiation, 4 vs 8 phases — the 8-phase clock cancels
//      the 3 f_LO re-emission a 4-phase set produces. Also reports what a
//      point of each sweep costs: the fill of its block system's LU and
//      the time of one factorization (report only, no gate).
//   4. Parity + service replay — the sweep is byte-identical across
//      thread counts, and an npath_zin request replayed through a
//      ServerSession is served from cache bit-exactly.
#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "mathx/sparse.hpp"
#include "npath/zin.hpp"
#include "obs/cli.hpp"
#include "rf/table.hpp"
#include "runtime/thread_pool.hpp"
#include "spice/ac.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"

using namespace rfmix;

namespace {

npath::NpathSpec base_spec() {
  npath::NpathSpec s;
  s.lo.samples = 128;
  s.harmonics = 10;
  s.f_lo_hz = 1e9;
  s.switch_ron = 10.0;
  s.zbb_r = 1e3;
  s.zbb_c = 40e-12;
  return s;
}

double db20(double x) { return 20.0 * std::log10(std::max(x, 1e-300)); }

/// What one point of a sweep of `spec` over `grid` costs: the structural
/// size of the analyzed LU of its block system (L + U) over nnz(A), and
/// the mean time of a point's factorization, assembly included (every
/// point analyzes).
struct PointCost {
  double fill_ratio = 0.0;
  double factor_us = 0.0;
};

PointCost point_cost(const npath::NpathSpec& spec, const std::vector<double>& grid) {
  using Cplx = std::complex<double>;
  const npath::NpathCircuit nc = npath::build_npath_circuit(spec);
  const lptv::ConversionAnalysis an(nc.ckt, {spec.f_lo_hz, spec.harmonics});
  const mathx::CscMatrix<Cplx> a(an.block_system(grid.front()));
  mathx::SparseLuSymbolic<Cplx> sym;
  const mathx::SparseLu<Cplx> lu(a, sym);
  PointCost cost;
  cost.fill_ratio = double(sym.l_capacity() + sym.u_capacity()) / double(a.nnz());
  constexpr int kPasses = 5;
  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < kPasses; ++pass)
    for (const double f : grid) an.factor(f);
  const std::chrono::duration<double, std::micro> spent =
      std::chrono::steady_clock::now() - start;
  cost.factor_us = spent.count() / double(kPasses * grid.size());
  return cost;
}

bool sweeps_identical(const npath::ZinSweep& a, const npath::ZinSweep& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (std::memcmp(&a.points[i], &b.points[i], sizeof(npath::ZinPoint)) != 0)
      return false;
  }
  return std::memcmp(&a.summary, &b.summary, sizeof(npath::ZinSummary)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchCli cli(argc, argv, "bench_npath_zin");
  std::ostream& out = cli.out();
  if (!cli.csv())
    out << "=== NPATH: mixer-first Zin/S11 via the conversion matrix ===\n\n";

  // --- 1. Peak tracks f_LO -------------------------------------------------
  rf::ConsoleTable peak_table({"f_lo (GHz)", "f_peak (GHz)", "Zin peak (ohm)",
                               "Zin floor (ohm)", "min |S11| (dB)"});
  bool peak_tracks = true;
  for (const double f_lo : {0.7e9, 1.0e9, 1.4e9}) {
    npath::NpathSpec s = base_spec();
    s.f_lo_hz = f_lo;
    const npath::ZinSweep sw =
        npath::zin_sweep(s, spice::lin_space(0.5 * f_lo, 1.5 * f_lo, 81));
    double s11_min = 1.0;
    for (const auto& pt : sw.points) s11_min = std::min(s11_min, std::abs(pt.s11));
    peak_tracks = peak_tracks &&
                  std::abs(sw.summary.f_peak_hz - f_lo) <= 1.05 * f_lo / 80.0;
    peak_table.add_row({rf::ConsoleTable::num(f_lo / 1e9, 2),
                        rf::ConsoleTable::num(sw.summary.f_peak_hz / 1e9, 3),
                        rf::ConsoleTable::num(sw.summary.zin_peak_ohm, 1),
                        rf::ConsoleTable::num(sw.summary.zin_floor_ohm, 1),
                        rf::ConsoleTable::num(db20(s11_min), 1)});
  }
  if (cli.csv()) peak_table.print_csv(out); else peak_table.print(out);

  // --- 2. Q vs baseband resistance ----------------------------------------
  if (!cli.csv()) out << "\n";
  rf::ConsoleTable q_table({"Zbb R (ohm)", "BW-3dB (MHz)", "Q"});
  std::vector<double> qs;
  for (const double rb : {200.0, 1000.0, 5000.0}) {
    npath::NpathSpec s = base_spec();
    s.zbb_r = rb;
    const npath::ZinSweep sw =
        npath::zin_sweep(s, spice::lin_space(0.7e9, 1.3e9, 241));
    qs.push_back(sw.summary.q);
    q_table.add_row({rf::ConsoleTable::num(rb, 0),
                     rf::ConsoleTable::num(sw.summary.bw_3db_hz / 1e6, 2),
                     rf::ConsoleTable::num(sw.summary.q, 2)});
  }
  const bool q_monotone = qs[0] > 0.0 && qs[1] > qs[0] && qs[2] > qs[1];
  if (cli.csv()) q_table.print_csv(out); else q_table.print(out);

  // --- 3. Re-radiation: 4 vs 8 phases -------------------------------------
  if (!cli.csv()) out << "\n";
  rf::ConsoleTable rr_table({"phases", "rerad @ (N-1)f_LO (dB)", "rerad @ 3f_LO (dB)",
                             "L+U / nnz(A)", "factor (us/pt)"});
  double rerad3[2] = {0.0, 0.0};
  PointCost costs[2];
  int idx = 0;
  for (const int phases : {4, 8}) {
    npath::NpathSpec s = base_spec();
    s.lo.phases = phases;
    s.lo.duty = 1.0 / phases;
    s.harmonics = phases + 2;
    const std::vector<double> grid = spice::lin_space(0.9e9, 1.1e9, 21);
    const npath::ZinSweep sw = npath::zin_sweep(s, grid);
    double rm = 0.0;
    for (const auto& pt : sw.points) rm = std::max(rm, pt.rerad_minus);
    rerad3[idx] = sw.summary.rerad_3lo_max;
    costs[idx] = point_cost(s, grid);
    rr_table.add_row({std::to_string(phases), rf::ConsoleTable::num(db20(rm), 1),
                      rf::ConsoleTable::num(db20(sw.summary.rerad_3lo_max), 1),
                      rf::ConsoleTable::num(costs[idx].fill_ratio, 3),
                      rf::ConsoleTable::num(costs[idx].factor_us, 1)});
    ++idx;
  }
  // The 8-phase set must bury its 3rd-harmonic re-emission at least 60 dB
  // below the 4-phase one.
  const bool hr_ok = rerad3[0] > 1e-3 && rerad3[1] < 1e-6;
  if (cli.csv()) rr_table.print_csv(out); else rr_table.print(out);

  // --- 4. Parity + service replay ------------------------------------------
  const npath::NpathSpec pspec = base_spec();
  const std::vector<double> grid = spice::lin_space(0.8e9, 1.2e9, 33);
  const auto sweep_at = [&](int threads) {
    runtime::ScopedPool pool(threads);
    return npath::zin_sweep(pspec, grid);
  };
  const bool parity_ok = sweeps_identical(sweep_at(1), sweep_at(8));

  bool replay_ok = false;
  {
    runtime::ScopedPool pool(4);
    svc::ResultCache cache(64);
    svc::ServerSession session(cache, runtime::ThreadPool::current());
    const std::string line =
        R"({"v":2,"id":1,"kind":"npath_zin","params":{"phases":4,"harmonics":10,)"
        R"("samples":128,"f_lo_hz":1e9,"zbb_r":1e3,"zbb_c":4e-11,)"
        R"("sweep":{"f_start_hz":8e8,"f_stop_hz":1.2e9,"points":33}}})";
    const svc::Response cold = session.handle_line(line);
    const svc::Response warm = session.handle_line(line);
    const auto tail = [](const std::string& s) {
      return s.substr(s.find("\"key\":"));
    };
    replay_ok = cold.ok && warm.ok &&
                warm.line.find("\"cached\":true") != std::string::npos &&
                tail(cold.line) == tail(warm.line);
  }

  if (!cli.csv()) {
    out << "\npeak tracks f_LO: " << (peak_tracks ? "yes" : "NO")
        << "; Q monotone in Zbb: " << (q_monotone ? "yes" : "NO")
        << "; 8-phase cancels 3f_LO: " << (hr_ok ? "yes" : "NO")
        << "\nsweep bit-identical (1/8 threads): "
        << (parity_ok ? "yes" : "NO")
        << "; rfmixd replay byte-identical: " << (replay_ok ? "yes" : "NO")
        << "\n";
  }

  cli.set_config("samples", double(pspec.lo.samples));
  cli.set_config("harmonics", double(pspec.harmonics));
  cli.add_metric("peak_tracks_flo", peak_tracks ? 1.0 : 0.0);
  cli.add_metric("q_200", qs[0]);
  cli.add_metric("q_1000", qs[1]);
  cli.add_metric("q_5000", qs[2]);
  cli.add_metric("rerad3_4ph_db", db20(rerad3[0]));
  cli.add_metric("rerad3_8ph_db", db20(rerad3[1]));
  cli.add_metric("fill_ratio_4ph", costs[0].fill_ratio);
  cli.add_metric("fill_ratio_8ph", costs[1].fill_ratio);
  cli.add_metric("factor_us_4ph", costs[0].factor_us);
  cli.add_metric("factor_us_8ph", costs[1].factor_us);
  cli.add_metric("parity_bit_identical", parity_ok ? 1.0 : 0.0);
  cli.add_metric("replay_bit_identical", replay_ok ? 1.0 : 0.0);

  if (!peak_tracks || !q_monotone || !hr_ok || !parity_ok || !replay_ok) {
    out << "npath acceptance FAILED\n";
    cli.finish();
    return 1;
  }
  return cli.finish();
}
