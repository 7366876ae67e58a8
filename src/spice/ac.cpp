#include "spice/ac.hpp"

#include <cmath>

#include "mathx/lu.hpp"
#include "mathx/units.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "spice/mna.hpp"

namespace rfmix::spice {

std::vector<double> log_space(double f_start, double f_stop, int points) {
  std::vector<double> f;
  f.reserve(static_cast<std::size_t>(points));
  if (points == 1) {
    f.push_back(f_start);
    return f;
  }
  const double l0 = std::log10(f_start);
  const double l1 = std::log10(f_stop);
  for (int i = 0; i < points; ++i)
    f.push_back(std::pow(10.0, l0 + (l1 - l0) * i / (points - 1)));
  return f;
}

std::vector<double> lin_space(double f_start, double f_stop, int points) {
  std::vector<double> f;
  f.reserve(static_cast<std::size_t>(points));
  if (points == 1) {
    f.push_back(f_start);
    return f;
  }
  for (int i = 0; i < points; ++i)
    f.push_back(f_start + (f_stop - f_start) * i / (points - 1));
  return f;
}

void for_each_ac_point(const Circuit& ckt, const Solution& op,
                       const std::vector<double>& freqs_hz, double gmin,
                       const AcPointSolve& solve) {
  if (freqs_hz.empty()) return;
  using Cplx = std::complex<double>;
  using Lu = mathx::SparseLu<Cplx>;
  const std::size_t n = static_cast<std::size_t>(ckt.layout().size());
  // Stamping is const on the finalized circuit, so points assemble
  // independently. Each spice.lu.* count precedes its factorization: a
  // singular point counts like any other.
  auto assemble = [&](std::size_t i, mathx::VectorC& b) {
    mathx::TripletMatrix<Cplx> y(n, n);
    b.assign(n, Cplx{});
    assemble_ac(ckt, op, mathx::kTwoPi * freqs_hz[i], gmin, y, b);
    return y;
  };
  mathx::VectorC b0;
  const mathx::TripletMatrix<Cplx> y0 = assemble(0, b0);
  RFMIX_OBS_COUNT("spice.lu.factorizations");
  RFMIX_OBS_COUNT("spice.lu.analyze");
  const bool more = freqs_hz.size() > 1;
  mathx::SparseLuSymbolic<Cplx> sym;
  mathx::TripletCscMap<Cplx> map;
  if (more) map.build(y0);
  const mathx::CscMatrix<Cplx> a0(y0);
  solve(0, more ? Lu(a0, sym) : Lu(a0), b0);
  // From here sym and map are only read, so the pool lanes share them.
  runtime::parallel_for(1, freqs_hz.size(), [&](std::size_t i) {
    mathx::VectorC b;
    const mathx::TripletMatrix<Cplx> y = assemble(i, b);
    RFMIX_OBS_COUNT("spice.lu.factorizations");
    mathx::CscMatrix<Cplx> a;
    if (map.matches(y)) {
      map.fill(y, a);
      Lu lu;
      if (lu.refactor_from(sym, a)) {
        RFMIX_OBS_COUNT("spice.lu.refactor");
        solve(i, lu, b);
        return;
      }
    } else {
      a = mathx::CscMatrix<Cplx>(y);
    }
    RFMIX_OBS_COUNT("spice.lu.fallback");
    RFMIX_OBS_COUNT("spice.lu.analyze");
    solve(i, Lu(a), b);
  });
}

AcResult ac_sweep(Circuit& ckt, const Solution& op, const std::vector<double>& freqs_hz,
                  double gmin) {
  RFMIX_OBS_SCOPED_TIMER("spice.ac");
  RFMIX_OBS_TRACE_SCOPE("spice.ac");
  RFMIX_OBS_COUNT_N("spice.ac.points", freqs_hz.size());
  AcResult result;
  result.layout = ckt.finalize();
  result.freqs_hz = freqs_hz;
  result.solutions.resize(freqs_hz.size());
  // Each point writes only its own slot: bit-identical to a serial loop.
  for_each_ac_point(ckt, op, freqs_hz, gmin,
                    [&](std::size_t i, const mathx::SparseLu<std::complex<double>>& lu,
                        const mathx::VectorC& b) { result.solutions[i] = lu.solve(b); });
  return result;
}

}  // namespace rfmix::spice
