#include "spice/ac.hpp"

#include <cmath>

#include "mathx/lu.hpp"
#include "mathx/units.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "spice/mna.hpp"
#include "spice/solver.hpp"

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

AcResult ac_sweep(Circuit& ckt, const Solution& op, const std::vector<double>& freqs_hz,
                  double gmin) {
  RFMIX_OBS_SCOPED_TIMER("spice.ac");
  RFMIX_OBS_TRACE_SCOPE("spice.ac");
  RFMIX_OBS_COUNT_N("spice.ac.points", freqs_hz.size());
  const MnaLayout layout = ckt.finalize();
  const std::size_t n = static_cast<std::size_t>(layout.size());

  AcResult result;
  result.freqs_hz = freqs_hz;
  result.layout = layout;
  result.solutions.resize(freqs_hz.size());

  if (freqs_hz.empty()) return result;

  // Frequency points are independent: stamping is const on the finalized
  // circuit, and each point writes only its own solution slot, so the
  // parallel run is bit-identical to the serial loop. Point 0 primes the
  // shared analysis serially, so which point analyzes — and every counter —
  // does not depend on scheduling.
  const Circuit& stamped = ckt;
  using Cplx = std::complex<double>;
  mathx::SweepLu<Cplx> lu(&count_sweep_lu);
  auto solve_point = [&](std::size_t i) {
    mathx::TripletMatrix<Cplx> y(n, n);
    mathx::VectorC b(n, Cplx{});
    assemble_ac(stamped, op, mathx::kTwoPi * freqs_hz[i], gmin, y, b);
    result.solutions[i] = lu.factor(y).solve(b);
  };
  solve_point(0);
  runtime::parallel_for(1, freqs_hz.size(), solve_point);
  return result;
}

}  // namespace rfmix::spice
