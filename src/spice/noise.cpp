#include "spice/noise.hpp"

#include <cmath>

#include "mathx/lu.hpp"
#include "mathx/units.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "spice/mna.hpp"
#include "spice/solver.hpp"

namespace rfmix::spice {

double NoiseResult::output_density(std::size_t i) const {
  return std::sqrt(points.at(i).total_output_psd_v2_hz);
}

double NoiseResult::contribution_psd(std::size_t i, const std::string& substr) const {
  double s = 0.0;
  for (const auto& c : points.at(i).contributions)
    if (c.label.find(substr) != std::string::npos) s += c.output_psd_v2_hz;
  return s;
}

NoiseResult noise_analysis(Circuit& ckt, const Solution& op, NodeId out_p, NodeId out_m,
                           const std::vector<double>& freqs_hz, double gmin) {
  RFMIX_OBS_SCOPED_TIMER("spice.noise");
  RFMIX_OBS_TRACE_SCOPE("spice.noise");
  RFMIX_OBS_COUNT_N("spice.noise.points", freqs_hz.size());
  const MnaLayout layout = ckt.finalize();
  const std::size_t n = static_cast<std::size_t>(layout.size());

  // Collect noise sources once; PSDs are functions of frequency.
  std::vector<NoiseSource> sources;
  for (const auto& dev : ckt.devices()) dev->append_noise(sources, op);

  NoiseResult result;
  result.points.resize(freqs_hz.size());
  if (freqs_hz.empty()) return result;

  using Cplx = std::complex<double>;
  auto output_selector = [&]() {
    mathx::VectorC e(n, Cplx{});
    const int up = layout.node_unknown(out_p);
    const int um = layout.node_unknown(out_m);
    if (up >= 0) e[static_cast<std::size_t>(up)] += 1.0;
    if (um >= 0) e[static_cast<std::size_t>(um)] -= 1.0;
    return e;
  };

  // Each frequency point assembles and solves independently (stamping and
  // the source PSD callbacks are const), so points run concurrently and
  // land in fixed slots — bit-identical to the serial loop. As in ac_sweep,
  // point 0 primes the shared analysis serially.
  mathx::SweepLu<Cplx> lu(&count_sweep_lu);
  auto solve_point = [&](std::size_t fi) {
    const double f = freqs_hz[fi];
    mathx::TripletMatrix<Cplx> y(n, n);
    mathx::VectorC b_unused(n, Cplx{});
    assemble_ac(ckt, op, mathx::kTwoPi * f, gmin, y, b_unused);
    // Adjoint solve: yv = Y^{-T} e_out.
    const mathx::VectorC yv = lu.factor(y).solve_transposed(output_selector());

    NoisePoint point;
    point.freq_hz = f;
    for (const auto& src : sources) {
      const int sp = layout.node_unknown(src.p);
      const int sm = layout.node_unknown(src.m);
      std::complex<double> transfer{};
      // A unit current injected from src.p to src.m through the source
      // enters node m and leaves node p: rhs contribution (-1 at p, +1 at m).
      if (sp >= 0) transfer -= yv[static_cast<std::size_t>(sp)];
      if (sm >= 0) transfer += yv[static_cast<std::size_t>(sm)];
      const double t2 = std::norm(transfer);
      const double psd = src.psd(f) * t2;
      point.total_output_psd_v2_hz += psd;
      point.contributions.push_back(NoiseContribution{src.label, psd});
    }
    result.points[fi] = std::move(point);
  };

  solve_point(0);
  runtime::parallel_for(1, freqs_hz.size(), solve_point);
  return result;
}

}  // namespace rfmix::spice
