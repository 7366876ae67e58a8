#include "core/pac_transistor.hpp"

#include <cmath>
#include <map>

#include "lptv/lptv.hpp"
#include "mathx/units.hpp"
#include "spice/mna.hpp"
#include "spice/pss.hpp"

namespace rfmix::core {

namespace {

constexpr int kPacSamplesPerPeriod = 64;
constexpr int kPacHarmonics = 6;

/// Assemble the real small-signal Jacobian of the circuit at state `x`
/// (DC-mode stamps: conductances and nonlinear-device derivatives; no
/// capacitor companions — the reactive part is handled separately).
mathx::MatrixD jacobian_at(const spice::Circuit& ckt, const spice::Solution& x) {
  const spice::MnaLayout layout = ckt.layout();
  const std::size_t n = static_cast<std::size_t>(layout.size());
  mathx::TripletMatrix<double> g(n, n);
  mathx::VectorD b(n, 0.0);
  spice::StampParams sp;
  sp.mode = spice::AnalysisMode::kDc;
  assemble_real(ckt, x, sp, 0.0, g, b);
  return g.to_dense();
}

/// Extract the constant capacitance matrix: C = Im(Y(w0)) / w0 where Y is
/// the AC system at the operating point (all capacitances in this circuit
/// are bias-independent, so any operating point works).
mathx::MatrixD capacitance_matrix(const spice::Circuit& ckt, const spice::Solution& op) {
  const spice::MnaLayout layout = ckt.layout();
  const std::size_t n = static_cast<std::size_t>(layout.size());
  const double w0 = 1.0;  // 1 rad/s: Im(Y)/w0 = C exactly for linear C
  mathx::TripletMatrix<std::complex<double>> y(n, n);
  mathx::VectorC b(n, std::complex<double>{});
  assemble_ac(ckt, op, w0, 0.0, y, b);
  const mathx::MatrixC dense = y.to_dense();
  mathx::MatrixD c(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) c(i, j) = dense(i, j).imag() / w0;
  return c;
}

/// LPTV node of a mixer circuit node.
int orbit_port(const LoweredOrbit& o, spice::NodeId id) {
  return lptv::orbit_node(o.mixer->circuit.layout().node_unknown(id));
}

}  // namespace

LoweredOrbit lower_mixer_orbit(const MixerConfig& config) {
  MixerConfig cfg = config;
  if (cfg.rf_series_r <= 0.0) cfg.rf_series_r = 50.0;  // enable gate injection
  LoweredOrbit o;
  o.mixer = build_transistor_mixer(cfg);
  spice::Circuit& ckt = o.mixer->circuit;

  // PSS under LO only (RF sources stay at their DC bias).
  spice::PssOptions pss_opts;
  pss_opts.samples_per_period = kPacSamplesPerPeriod;
  o.pss = spice::periodic_steady_state(ckt, 1.0 / cfg.f_lo_hz, pss_opts);

  // Sampled Jacobians over the orbit + the constant C matrix.
  std::vector<mathx::MatrixD> g_samples;
  g_samples.reserve(o.pss.samples.size());
  for (const auto& x : o.pss.samples) g_samples.push_back(jacobian_at(ckt, x));
  o.circuit =
      lptv::lower_sampled_orbit(g_samples, capacitance_matrix(ckt, o.pss.samples.front()));
  o.rf_p = orbit_port(o, o.mixer->rf_p);
  o.rf_m = orbit_port(o, o.mixer->rf_m);
  o.if_p = orbit_port(o, o.mixer->if_p);
  o.if_m = orbit_port(o, o.mixer->if_m);
  return o;
}

namespace {

/// Sample every device noise source along the orbit into one
/// cyclostationary source per label (same label = same physical source),
/// intensity evaluated at the baseband frequency.
void add_orbit_noise(LoweredOrbit& o, double f_if_hz) {
  const std::size_t m_samp = o.pss.samples.size();
  struct Accum {
    int p, m;
    lptv::PeriodicWave wave;
  };
  std::map<std::string, Accum> by_label;
  for (std::size_t s = 0; s < m_samp; ++s) {
    std::vector<spice::NoiseSource> sources;
    for (const auto& dev : o.mixer->circuit.devices())
      dev->append_noise(sources, o.pss.samples[s]);
    for (const auto& src : sources) {
      auto it = by_label
                    .try_emplace(src.label,
                                 Accum{orbit_port(o, src.p), orbit_port(o, src.m),
                                       lptv::PeriodicWave(m_samp, 0.0)})
                    .first;
      it->second.wave[s] = src.psd(f_if_hz);
    }
  }
  for (auto& [label, acc] : by_label)
    o.circuit.add_cyclo_noise_current(acc.p, acc.m, std::move(acc.wave), label);
}

}  // namespace

PacResult pac_conversion_gain(const MixerConfig& config, double f_if_hz) {
  const LoweredOrbit o = lower_mixer_orbit(config);
  const lptv::ConversionAnalysis an(o.circuit, {config.f_lo_hz, kPacHarmonics});
  const auto pac = an.factor(f_if_hz);

  PacResult result;
  result.pss_converged = o.pss.converged;
  result.pss_periods = o.pss.periods_used;

  // Inject a differential unit AC current at the RF gates; gains are read
  // as ratios so the injection impedance drops out.
  for (const int k_in : {+1, -1}) {
    const lptv::PacSolution sol = pac.solve_current_injection(o.rf_p, o.rf_m, k_in);
    const std::complex<double> v_in = sol.vd(k_in, o.rf_p, o.rf_m);
    const std::complex<double> v_out = sol.vd(0, o.if_p, o.if_m);
    const double gain_db =
        mathx::db_from_voltage_ratio(std::abs(v_out) / std::max(std::abs(v_in), 1e-30));
    if (k_in == +1) {
      result.conversion_gain_db = gain_db;
    } else {
      result.image_gain_db = gain_db;
    }
  }
  return result;
}

PnoiseResult pac_nf_dsb(const MixerConfig& config, double f_if_hz) {
  LoweredOrbit o = lower_mixer_orbit(config);
  add_orbit_noise(o, f_if_hz);
  const lptv::ConversionAnalysis an(o.circuit, {config.f_lo_hz, kPacHarmonics});
  const auto pac = an.factor(f_if_hz);
  const auto noise = pac.output_noise(o.if_p, o.if_m);

  // EMF-referenced conversion gains for both signal sidebands: injecting a
  // unit current at the gate behind the series Rs is a Thevenin EMF of
  // Rs volts per side (2*Rs differentially).
  const double rs = o.mixer->config.rf_series_r;
  double gain2 = 0.0;
  double gain_up = 0.0;
  for (const int k_in : {+1, -1}) {
    const lptv::PacSolution sol = pac.solve_current_injection(o.rf_p, o.rf_m, k_in);
    const double av = std::abs(sol.vd(0, o.if_p, o.if_m)) / (2.0 * rs);
    gain2 += av * av;
    if (k_in == +1) gain_up = av;
  }

  PnoiseResult r;
  r.pss_converged = o.pss.converged;
  r.output_noise_v2_hz = noise.total_output_psd_v2_hz;
  r.gain_db = mathx::db_from_voltage_ratio(gain_up);
  // DSB NF against the differential source resistance 2*Rs at 290 K.
  const double source_part = 4.0 * mathx::kBoltzmann * 290.0 * (2.0 * rs) * gain2;
  r.nf_dsb_db = mathx::db_from_power_ratio(noise.total_output_psd_v2_hz / source_part);
  return r;
}

}  // namespace rfmix::core
