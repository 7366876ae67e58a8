#include "npath/zin.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"

namespace rfmix::npath {

namespace {

using Complex = std::complex<double>;

/// One frequency point: factor the block system at absolute frequency f,
/// inject a unit current into the RF node at sideband 0, and read the port
/// voltage (sideband 0) plus the re-radiated sidebands.
ZinPoint zin_point(const lptv::ConversionAnalysis& an, const NpathSpec& spec,
                   int rf_node, double f_hz) {
  RFMIX_OBS_SCOPED_TIMER("npath.zin.point");
  RFMIX_OBS_COUNT("npath.zin.points");
  const lptv::ConversionAnalysis::Factored sys = an.factor(f_hz);
  // Current from ground into the RF node (p=0, m=rf): the b-vector gets +1
  // at rf, so v(0, rf) is the port impedance seen by the source, Rs
  // included.
  const lptv::PacSolution sol = sys.solve_current_injection(0, rf_node, 0);
  const Complex v0 = sol.v(0, rf_node);

  ZinPoint pt;
  pt.f_hz = f_hz;
  // v0 = Rs || Zin: the source resistance is part of the network (it
  // terminates the harmonic re-radiation, which matters physically), so
  // de-embed it to get the mixer-first input impedance itself.
  const Complex y_total = 1.0 / v0;
  const Complex y_mixer = y_total - 1.0 / spec.r_source;
  pt.zin = 1.0 / y_mixer;
  pt.s11 = (pt.zin - spec.r_source) / (pt.zin + spec.r_source);

  const int k_hi = an.harmonics();
  const double v0_mag = std::abs(v0);
  const int n = spec.lo.phases;
  if (v0_mag > 0.0) {
    // Ideal N-phase commutation only re-radiates at k = multiples of +-N;
    // report the first pair (absolute frequencies |f -+ N f_LO|, i.e.
    // (N-+1) f_LO for f near f_LO).
    if (n <= k_hi) {
      pt.rerad_minus = std::abs(sol.v(-n, rf_node)) / v0_mag;
      pt.rerad_plus = std::abs(sol.v(+n, rf_node)) / v0_mag;
    }
    // Re-radiated amplitude near the 3rd LO harmonic: the sidebands whose
    // absolute frequency lands closest to +-3 f_LO. For a 4-phase set and
    // f near f_LO this is the k = -4 term (3 f_LO = (N-1) f_LO); an
    // 8-phase set cancels it — the harmonic-rejection advantage.
    const double ratio = f_hz / spec.f_lo_hz;
    double acc = 0.0;
    for (const double target : {3.0, -3.0}) {
      const int k = static_cast<int>(std::lround(target - ratio));
      if (k == 0 || std::abs(k) > k_hi) continue;
      const double a = std::abs(sol.v(k, rf_node)) / v0_mag;
      acc += a * a;
    }
    pt.rerad_3lo = std::sqrt(acc);
  }
  return pt;
}

/// Linear-interpolated crossing of |zin| through `level` between adjacent
/// sweep points, searching outward from `peak` in direction `step`.
/// Returns the crossing frequency, or 0 when the level is never crossed
/// inside the sweep.
double find_crossing(const ZinSweep& sw, std::size_t peak, int step, double level) {
  std::size_t i = peak;
  while (true) {
    const std::size_t j = static_cast<std::size_t>(static_cast<long>(i) + step);
    if (step < 0 && i == 0) return 0.0;
    if (step > 0 && j >= sw.points.size()) return 0.0;
    const double mi = std::abs(sw.points[i].zin);
    const double mj = std::abs(sw.points[j].zin);
    if (mj <= level) {
      const double t = (mi - level) / (mi - mj);  // mi > level >= mj
      return sw.freqs_hz[i] + t * (sw.freqs_hz[j] - sw.freqs_hz[i]);
    }
    i = j;
  }
}

void summarize(ZinSweep& sw) {
  if (sw.points.empty()) return;
  std::size_t peak = 0;
  double peak_mag = -1.0, floor_mag = 0.0;
  for (std::size_t i = 0; i < sw.points.size(); ++i) {
    const double mag = std::abs(sw.points[i].zin);
    if (mag > peak_mag) {
      peak_mag = mag;
      peak = i;
    }
    if (i == 0 || mag < floor_mag) floor_mag = mag;
    sw.summary.rerad_3lo_max = std::max(sw.summary.rerad_3lo_max, sw.points[i].rerad_3lo);
  }
  sw.summary.f_peak_hz = sw.freqs_hz[peak];
  sw.summary.zin_peak_ohm = peak_mag;
  sw.summary.zin_floor_ohm = floor_mag;
  const double level = peak_mag / std::sqrt(2.0);
  const double lo = find_crossing(sw, peak, -1, level);
  const double hi = find_crossing(sw, peak, +1, level);
  if (lo > 0.0 && hi > 0.0) {
    sw.summary.bw_3db_hz = hi - lo;
    if (sw.summary.bw_3db_hz > 0.0)
      sw.summary.q = sw.summary.f_peak_hz / sw.summary.bw_3db_hz;
  }
}

}  // namespace

void validate(const NpathSpec& spec) {
  validate(spec.lo);
  if (!(spec.f_lo_hz > 0.0))
    throw std::invalid_argument("NpathSpec: f_lo_hz must be positive");
  if (!(spec.r_source > 0.0))
    throw std::invalid_argument("NpathSpec: r_source must be positive");
  if (!(spec.switch_ron > 0.0))
    throw std::invalid_argument("NpathSpec: switch_ron must be positive");
  if (!(spec.zbb_r > 0.0))
    throw std::invalid_argument("NpathSpec: zbb_r must be positive");
  if (spec.zbb_c < 0.0)
    throw std::invalid_argument("NpathSpec: zbb_c must be >= 0");
  if (spec.c_rf < 0.0)
    throw std::invalid_argument("NpathSpec: c_rf must be >= 0");
  if (spec.harmonics > 64)
    throw std::invalid_argument("NpathSpec: harmonics must be <= 64");
  // K must retain the +-N re-radiation sidebands or the analysis silently
  // under-reports the very terms this subsystem exists to expose.
  if (spec.harmonics < spec.lo.phases + 1)
    throw std::invalid_argument("NpathSpec: harmonics must be >= phases + 1");
  if (spec.lo.samples < 4 * spec.harmonics + 2)
    throw std::invalid_argument(
        "NpathSpec: lo.samples must be >= 4*harmonics + 2 (waveform "
        "resolution bounds the usable harmonic count)");
  // Last, so a spec refused above keeps its message: +inf (a JSON 1e999)
  // passes every sign check, and NaN passes the two >= 0 ones.
  const std::pair<const char*, double> values[] = {
      {"f_lo_hz", spec.f_lo_hz}, {"r_source", spec.r_source}, {"switch_ron", spec.switch_ron},
      {"zbb_r", spec.zbb_r},     {"zbb_c", spec.zbb_c},       {"c_rf", spec.c_rf}};
  for (const auto& [name, value] : values)
    if (!std::isfinite(value))
      throw std::invalid_argument(std::string("NpathSpec: ") + name + " must be finite");
}

NpathCircuit build_npath_circuit(const NpathSpec& spec) {
  validate(spec);
  NpathCircuit out{lptv::LptvCircuit(spec.lo.samples), 0, {}};
  out.rf = out.ckt.add_node();
  out.ckt.add_resistor(out.rf, 0, spec.r_source);
  if (spec.c_rf > 0.0) out.ckt.add_capacitance(out.rf, 0, spec.c_rf);
  const std::vector<lptv::PeriodicWave> waves =
      lo_waveforms(spec.lo, 0.0, 1.0 / spec.switch_ron);
  out.bb.reserve(static_cast<std::size_t>(spec.lo.phases));
  for (int p = 0; p < spec.lo.phases; ++p) {
    const int bb = out.ckt.add_node();
    out.bb.push_back(bb);
    out.ckt.add_periodic_conductance(out.rf, bb, waves[static_cast<std::size_t>(p)]);
    out.ckt.add_resistor(bb, 0, spec.zbb_r);
    if (spec.zbb_c > 0.0) out.ckt.add_capacitance(bb, 0, spec.zbb_c);
  }
  return out;
}

ZinSweep zin_sweep(const NpathSpec& spec, std::vector<double> freqs_hz) {
  validate(spec);
  RFMIX_OBS_SCOPED_TIMER("npath.zin.sweep");
  RFMIX_OBS_TRACE_SCOPE("npath.zin.sweep");
  RFMIX_OBS_COUNT("npath.zin.sweeps");
  const NpathCircuit nc = build_npath_circuit(spec);
  const lptv::ConversionAnalysis an(nc.ckt, {spec.f_lo_hz, spec.harmonics});

  ZinSweep out;
  out.freqs_hz = std::move(freqs_hz);
  out.points.resize(out.freqs_hz.size());
  // Every point factors cold and writes only its own slot, so results and
  // counters are independent of scheduling.
  runtime::parallel_for(0, out.points.size(), [&](std::size_t i) {
    out.points[i] = zin_point(an, spec, nc.rf, out.freqs_hz[i]);
  });
  summarize(out);
  return out;
}

}  // namespace rfmix::npath
