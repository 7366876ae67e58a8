#include "core/lptv_model.hpp"

#include <cmath>
#include <stdexcept>

#include "mathx/units.hpp"
#include "rf/nf.hpp"
#include "runtime/parallel_for.hpp"

namespace rfmix::core {

using mathx::kBoltzmann;
using mathx::kTwoPi;

namespace {

/// 4kT at the configured junction temperature [W/Hz per ohm-conductance].
double four_kt(const MixerConfig& cfg) { return 4.0 * kBoltzmann * cfg.temperature_k; }

/// Mobility degradation scales the achievable transconductance at fixed
/// bias current: gm ~ sqrt(kp * I) with kp ~ (T/300)^-1.5.
double gm_at_temperature(const MixerConfig& cfg) {
  return cfg.tca_gm * std::pow(300.0 / cfg.temperature_k, 0.75);
}

/// Input-network pole frequencies per mode. These are NOT the -3 dB band
/// edges themselves: the paper's bandwidths (1-5.5 GHz active, 0.5-5.1 GHz
/// passive) are relative to the 2.45 GHz reference gain, so the first-order
/// poles are placed where the *relative* response crosses -3 dB at the
/// Table I edges.
struct BandPoles {
  double f_hp, f_lp;
};

BandPoles band_poles(MixerMode mode) {
  // Two cascaded first-order sections per edge; each pole contributes half
  // the 3 dB of relative roll-off at the Table I edge frequencies.
  if (mode == MixerMode::kActive) return {0.66e9, 5.6e9};
  return {0.31e9, 6.5e9};
}

/// Stationary MOS-like noise PSD: white with a 1/f corner.
std::function<double(double)> mos_noise_psd(double white_a2_hz, double corner_hz) {
  return [white_a2_hz, corner_hz](double f) {
    return white_a2_hz * (1.0 + corner_hz / std::max(f, 1e-3));
  };
}

}  // namespace

std::unique_ptr<LptvMixerModel> build_lptv_mixer(const MixerConfig& cfg) {
  const double kFourKT = four_kt(cfg);
  auto model = std::make_unique<LptvMixerModel>();
  lptv::LptvCircuit& c = model->circuit;
  const int n_samp = c.num_samples();
  const BandPoles edges = band_poles(cfg.mode);

  // ---- input network: EMF injection, source resistance, input pole,
  //      coupling high-pass ------------------------------------------------
  const int in = c.add_node();   // EMF node: 1 S to ground, inject 1 A -> 1 V
  const int n1 = c.add_node();
  const int g1 = c.add_node();   // first low-pass section output
  const int g = c.add_node();    // TCA gate node (second low-pass section)
  const int ga = c.add_node();   // first coupling high-pass output
  const int gq = c.add_node();   // effective gm input after both couplings

  model->in = in;
  model->rs = 50.0;

  c.add_conductance(in, 0, 1.0);
  c.add_resistor(in, n1, model->rs);
  // Two cascaded low-pass sections model the TCA's input and internal poles
  // (gate resistance + Cgs, then an internal node at a higher impedance
  // level so the sections do not load each other).
  const double r_pole = 25.0;
  const double r_pole2 = 500.0;
  c.add_resistor(n1, g1, r_pole);
  c.add_capacitance(g1, 0, 1.0 / (kTwoPi * (model->rs + r_pole) * edges.f_lp));
  c.add_resistor(g1, g, r_pole2);
  c.add_capacitance(g, 0, 1.0 / (kTwoPi * r_pole2 * edges.f_lp));

  // Two cascaded coupling high-pass sections ("DC decoupled to switching
  // stage", section II): each CR corner sits at f_hp.
  const double r_bias = 10e3;
  c.add_capacitance(g, ga, 1.0 / (kTwoPi * r_bias * edges.f_hp));
  c.add_resistor(ga, 0, r_bias);
  c.add_capacitance(ga, gq, 1.0 / (kTwoPi * r_bias * edges.f_hp));
  c.add_resistor(gq, 0, r_bias);

  // Input-network noise. The gate bias elements are treated as noiseless:
  // the design biases through large choke/current-reuse networks whose noise
  // is negligible in-band; the r_bias resistors above only shape the
  // low-frequency edge.
  c.add_noise_current(in, n1, [rs = model->rs, kFourKT](double) { return kFourKT / rs; },
                      "source");
  // Only the physical gate resistance contributes noise; the second section
  // models the TCA's internal gm roll-off (not a physical resistor), so it
  // is noiseless.
  c.add_noise_current(n1, g1, [r_pole, kFourKT](double) { return kFourKT / r_pole; },
                      "tca.rin");

  const double gm_half = gm_at_temperature(cfg) / 2.0;

  if (cfg.mode == MixerMode::kPassive) {
    // ---- TCA -> Rdeg -> switch quad -> TIA --------------------------------
    const int x_p = c.add_node(), x_m = c.add_node();  // TCA outputs
    const int a_p = c.add_node(), a_m = c.add_node();  // quad inputs
    const int b_p = c.add_node(), b_m = c.add_node();  // TIA virtual grounds
    const int o_p = c.add_node(), o_m = c.add_node();  // IF outputs
    model->out_p = o_p;
    model->out_m = o_m;

    // Differential transconductor: +gm/2 into x_p, -gm/2 into x_m.
    c.add_vccs(0, x_p, gq, 0, gm_half);
    c.add_vccs(x_m, 0, gq, 0, gm_half);
    for (const int x : {x_p, x_m}) {
      c.add_resistor(x, 0, cfg.tca_rout);
      c.add_capacitance(x, 0, cfg.tca_cpar);
    }
    // TCA channel noise: white + flicker, one source per side.
    const double tca_white = kFourKT * cfg.tca_nf_gamma * gm_half;
    c.add_noise_current(x_p, 0, mos_noise_psd(tca_white, cfg.tca_flicker_corner_hz),
                        "tca.m1");
    c.add_noise_current(x_m, 0, mos_noise_psd(tca_white, cfg.tca_flicker_corner_hz),
                        "tca.m2");

    // PMOS Sw1-2 acting as degeneration resistance (paper: "width of PMOS is
    // chosen to provide degeneration resistance").
    c.add_resistor(x_p, a_p, cfg.rdeg);
    c.add_resistor(x_m, a_m, cfg.rdeg);
    c.add_noise_current(x_p, a_p, [r = cfg.rdeg, kFourKT](double) { return kFourKT / r; },
                        "sw12.rdeg_p");
    c.add_noise_current(x_m, a_m, [r = cfg.rdeg, kFourKT](double) { return kFourKT / r; },
                        "sw12.rdeg_m");

    // Switch quad: periodic conductances with cyclostationary 4kT g(t).
    const double g_on = 1.0 / cfg.quad_ron;
    const double g_off = 1e-9;
    auto add_switch = [&](int a, int b, double phase, const std::string& label) {
      lptv::PeriodicWave gw =
          lptv::square_wave(n_samp, g_off, g_on, cfg.lo_rise_fraction,
                            phase + cfg.lo_phase_frac);
      lptv::PeriodicWave sn(gw.size());
      for (std::size_t i = 0; i < gw.size(); ++i) sn[i] = kFourKT * gw[i];
      c.add_periodic_conductance(a, b, gw);
      c.add_cyclo_noise_current(a, b, sn, label);
    };
    add_switch(a_p, b_p, 0.0, "quad.m3");
    add_switch(a_p, b_m, 0.5, "quad.m4");
    add_switch(a_m, b_p, 0.5, "quad.m5");
    add_switch(a_m, b_m, 0.0, "quad.m6");

    // TIA per side: inverting opamp macromodel with RF || CF feedback.
    const double c_out = cfg.tia_ota_gm / (kTwoPi * cfg.tia_ota_gbw_hz);
    auto add_tia = [&](int b, int o, const std::string& side) {
      c.add_vccs(o, 0, b, 0, cfg.tia_ota_gm);
      c.add_resistor(o, 0, cfg.tia_ota_rout);
      c.add_capacitance(o, 0, c_out);
      c.add_resistor(b, o, cfg.tia_rf);
      c.add_capacitance(b, o, cfg.tia_cf);
      // Opamp input-referred voltage noise en maps to gm*en output current
      // in this macromodel; includes the OTA's own 1/f corner.
      const double en = cfg.tia_input_noise_nv * 1e-9;
      const double iout2 = cfg.tia_ota_gm * en * cfg.tia_ota_gm * en;
      c.add_noise_current(o, 0, mos_noise_psd(iout2, cfg.tia_flicker_corner_hz),
                          "tia.ota_" + side);
      c.add_noise_current(b, o, [r = cfg.tia_rf, kFourKT](double) { return kFourKT / r; },
                          "tia.rf_" + side);
    };
    add_tia(b_p, o_p, "p");
    add_tia(b_m, o_m, "m");
    return model;
  }

  // ---- Active mode: commutated Gm into the transmission-gate load --------
  const int out_p = c.add_node(), out_m = c.add_node();
  model->out_p = out_p;
  model->out_m = out_m;

  // Double-balanced commutation: each output sees +-gm/2 square-wave
  // transconductance from the RF gate voltage.
  c.add_periodic_vccs(0, out_p, gq, 0,
                      lptv::square_wave(n_samp, -gm_half, gm_half,
                                        cfg.lo_rise_fraction, cfg.lo_phase_frac));
  c.add_periodic_vccs(0, out_m, gq, 0,
                      lptv::square_wave(n_samp, -gm_half, gm_half,
                                        cfg.lo_rise_fraction, 0.5 + cfg.lo_phase_frac));

  // Gm-MOS channel noise is commutated with the signal (chopped): model as
  // cyclostationary with constant intensity split across the two branches.
  const double gm_noise = kFourKT * cfg.tca_nf_gamma * gm_half;
  c.add_noise_current(out_p, 0, mos_noise_psd(gm_noise, cfg.tca_flicker_corner_hz),
                      "gmstage.m1");
  c.add_noise_current(out_m, 0, mos_noise_psd(gm_noise, cfg.tca_flicker_corner_hz),
                      "gmstage.m2");

  // Switching-pair direct noise: the LO pair injects white + 1/f noise at
  // the output during commutation transitions (Terrovitis-Meyer mechanism).
  // Modeled as a stationary output current source with an effective pair
  // transconductance and the pair's own flicker corner, which sets the
  // active mode's IF noise corner.
  const double sw_white = kFourKT * cfg.tca_nf_gamma * cfg.active_pair_noise_gm;
  c.add_noise_current(out_p, 0,
                      mos_noise_psd(sw_white, cfg.active_pair_flicker_corner_hz),
                      "quad.pair_p");
  c.add_noise_current(out_m, 0,
                      mos_noise_psd(sw_white, cfg.active_pair_flicker_corner_hz),
                      "quad.pair_m");

  // Transmission-gate resistive load to (AC-ground) VDD plus Cc low-pass
  // (Fig. 5b): gain tunes with tg_resistance, pole with cc_load.
  for (const int o : {out_p, out_m}) {
    c.add_resistor(o, 0, cfg.tg_resistance);
    c.add_capacitance(o, 0, cfg.cc_load);
    c.add_noise_current(o, 0, [r = cfg.tg_resistance, kFourKT](double) { return kFourKT / r; },
                        "tg.load");
  }
  return model;
}

namespace {

lptv::ConversionOptions conversion_options(const MixerConfig& cfg) {
  lptv::ConversionOptions opts;
  opts.f_lo = cfg.f_lo_hz;
  opts.harmonics = 8;
  return opts;
}

}  // namespace

double lptv_conversion_gain_db(const MixerConfig& cfg, double f_if_hz) {
  const auto model = build_lptv_mixer(cfg);
  lptv::ConversionAnalysis an(model->circuit, conversion_options(cfg));
  // 1 A into the 1 S input conductance = 1 V EMF at sideband +1 (RF =
  // f_lo + f_if); read the differential IF output at sideband 0.
  const lptv::Complex h = an.conversion_transimpedance(
      f_if_hz, 0, model->in, +1, model->out_p, model->out_m, 0);
  return mathx::db_from_voltage_ratio(std::abs(h));
}

MixerConfig lo_retuned_for_rf(const MixerConfig& cfg, double f_rf_hz, double f_if_hz) {
  if (f_rf_hz <= f_if_hz)
    throw std::invalid_argument("lo_retuned_for_rf: f_rf must exceed f_if");
  MixerConfig tuned = cfg;
  tuned.f_lo_hz = f_rf_hz - f_if_hz;  // low-side LO tracking the RF
  return tuned;
}

double lptv_conversion_gain_at_rf_db(const MixerConfig& cfg, double f_rf_hz,
                                     double f_if_hz) {
  return lptv_conversion_gain_db(lo_retuned_for_rf(cfg, f_rf_hz, f_if_hz), f_if_hz);
}

LptvNfPoint lptv_nf_dsb(const MixerConfig& cfg, double f_if_hz) {
  const auto model = build_lptv_mixer(cfg);
  lptv::ConversionAnalysis an(model->circuit, conversion_options(cfg));

  // Factor the block system once: both sideband injections and the noise
  // solve (transposed) share its LU.
  const lptv::ConversionAnalysis::Factored sys = an.factor(f_if_hz);
  const lptv::Complex h_up = sys.solve_current_injection(0, model->in, +1)
                                 .vd(0, model->out_p, model->out_m);
  const lptv::Complex h_dn = sys.solve_current_injection(0, model->in, -1)
                                 .vd(0, model->out_p, model->out_m);

  const lptv::LptvNoiseResult noise = sys.output_noise(model->out_p, model->out_m);

  // DSB noise figure: the signal is taken as arriving in both sidebands
  // (|H+1|^2 + |H-1|^2 in the denominator).
  const double gain2 = std::norm(h_up) + std::norm(h_dn);
  // NF is referenced to the IEEE 290 K source temperature regardless of the
  // junction temperature the devices run at.
  const double source_part = 4.0 * kBoltzmann * 290.0 * model->rs * gain2;

  LptvNfPoint pt;
  pt.f_if_hz = f_if_hz;
  pt.output_noise_v2_hz = noise.total_output_psd_v2_hz;
  pt.gain_db = mathx::db_from_voltage_ratio(std::abs(h_up));
  pt.nf_dsb_db =
      mathx::db_from_power_ratio(noise.total_output_psd_v2_hz / source_part);
  return pt;
}

std::vector<double> lptv_gain_vs_rf_sweep_db(const MixerConfig& cfg,
                                             const std::vector<double>& f_rf_hz,
                                             double f_if_hz) {
  // Each point retunes the LO and builds a private model, so points are
  // independent and run concurrently on the runtime pool.
  return runtime::parallel_map(f_rf_hz.size(), [&](std::size_t i) {
    return lptv_conversion_gain_at_rf_db(cfg, f_rf_hz[i], f_if_hz);
  });
}

std::vector<LptvNfPoint> lptv_nf_sweep(const MixerConfig& cfg,
                                       const std::vector<double>& f_if_hz) {
  return runtime::parallel_map(f_if_hz.size(), [&](std::size_t i) {
    return lptv_nf_dsb(cfg, f_if_hz[i]);
  });
}

}  // namespace rfmix::core
