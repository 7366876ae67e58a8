// LPTV models of the reconfigurable mixer, built for the conversion-matrix
// engine. These models reproduce the paper's frequency-translation physics
// from first principles: square-wave commutation, switch Ron, TCA output
// pole (CPAR), coupling-capacitor low-frequency edge, the TIA's finite
// gain-bandwidth, and every noise mechanism (stationary TCA channel noise
// with its 1/f corner, cyclostationary switch noise 4kT g(t), TIA input
// noise, feedback/load resistor noise).
//
// Passive mode (Fig. 6a):  Vin -> [input pole] -> gm stage -> Rdeg (PMOS
//   Sw1-2 on-resistance) -> 4-switch quad -> TIA virtual grounds (RF || CF).
// Active mode (Fig. 6b):   Vin -> [input pole] -> commutated gm (Gilbert) ->
//   transmission-gate load Rtol with Cc low-pass.
#pragma once

#include <memory>

#include "core/mixer_config.hpp"
#include "lptv/lptv.hpp"

namespace rfmix::core {

/// Handles into the constructed LPTV circuit.
struct LptvMixerModel {
  lptv::LptvCircuit circuit;
  int in = 0;      // EMF injection node (1 ohm to ground: 1 A -> 1 V)
  int out_p = 0;   // differential IF output
  int out_m = 0;
  double rs = 50.0;  // modeled source resistance for NF referencing

  LptvMixerModel() : circuit(256) {}
};

/// Build the LPTV model for `config.mode`.
std::unique_ptr<LptvMixerModel> build_lptv_mixer(const MixerConfig& config);

/// Conversion gain [dB]: RF applied at f_lo + f_if (sideband +1), IF output
/// read at f_if (sideband 0), referenced to the source EMF.
double lptv_conversion_gain_db(const MixerConfig& config, double f_if_hz = 5e6);

/// `config` with its LO retuned low-side so that f_rf = f_lo + f_if (the
/// Fig. 8 convention). Throws std::invalid_argument unless f_rf > f_if.
MixerConfig lo_retuned_for_rf(const MixerConfig& config, double f_rf_hz, double f_if_hz);

/// Conversion gain vs RF frequency at fixed IF (Fig. 8 series): the LO is
/// retuned so that f_rf = f_lo + f_if for each point.
double lptv_conversion_gain_at_rf_db(const MixerConfig& config, double f_rf_hz,
                                     double f_if_hz = 5e6);

struct LptvNfPoint {
  double f_if_hz = 0.0;
  double nf_dsb_db = 0.0;
  double gain_db = 0.0;
  double output_noise_v2_hz = 0.0;
};

/// DSB noise figure at IF frequency f_if (Fig. 9 series), RF anchored at
/// config.f_lo_hz + f_if.
LptvNfPoint lptv_nf_dsb(const MixerConfig& config, double f_if_hz);

/// Fig. 8 batch: conversion gain at each RF frequency, every point solved
/// concurrently on the runtime pool (one model + factorization per point).
/// Bit-identical to calling lptv_conversion_gain_at_rf_db point by point.
std::vector<double> lptv_gain_vs_rf_sweep_db(const MixerConfig& config,
                                             const std::vector<double>& f_rf_hz,
                                             double f_if_hz = 5e6);

/// Fig. 9 batch: NF/gain at each IF frequency, points solved concurrently.
/// Bit-identical to calling lptv_nf_dsb point by point.
std::vector<LptvNfPoint> lptv_nf_sweep(const MixerConfig& config,
                                       const std::vector<double>& f_if_hz);

}  // namespace rfmix::core
