// True periodic AC analysis of the transistor-level mixer — the fourth
// engine. Pipeline:
//   1. find the large-signal periodic steady state (PSS) of the transistor
//      circuit under the LO drive (spice/pss.hpp);
//   2. linearize the nonlinear devices at every time sample of the orbit,
//      producing the sampled small-signal Jacobian G(t_k) plus the constant
//      capacitance matrix C;
//   3. lower those samples into an LPTV circuit (lptv::lower_sampled_orbit)
//      and solve the harmonic conversion-matrix system once per call
//      (lptv::ConversionAnalysis) to get the sideband transfer functions.
//
// Unlike core/lptv_model.* (hand-built element values) this path involves
// no modeling choices: whatever commutation waveforms, overlap, and
// conduction angles the transistor circuit actually produces are what the
// analysis linearizes. Agreement between this engine and the transient
// two-tone measurements validates both.
#pragma once

#include <memory>

#include "core/circuits.hpp"
#include "core/mixer_config.hpp"
#include "lptv/lptv.hpp"
#include "spice/pss.hpp"

namespace rfmix::core {

/// A freshly built transistor mixer's PSS orbit (64 samples per LO
/// period), lowered into the LPTV engine, with its RF and IF ports as LPTV
/// nodes. PAC and PNOISE start here and analyze it at K = 6 harmonics; a
/// truncation study can analyze `circuit` at any K up to 15 (4K+2 <= 64).
struct LoweredOrbit {
  std::unique_ptr<TransistorMixer> mixer;
  spice::PssResult pss;
  lptv::LptvCircuit circuit;
  int rf_p = 0, rf_m = 0, if_p = 0, if_m = 0;
};

/// Build the mixer in `config.mode` (with a 50-ohm RF series resistance
/// unless one is set), find its PSS under the LO and lower the orbit.
LoweredOrbit lower_mixer_orbit(const MixerConfig& config);

struct PacResult {
  bool pss_converged = false;
  int pss_periods = 0;
  /// Conversion gain from the RF gate voltage at f_lo + f_if to the
  /// differential IF output at f_if [dB].
  double conversion_gain_db = 0.0;
  /// Gain from the image sideband (f_lo - f_if) for reference.
  double image_gain_db = 0.0;
};

/// Run PSS + PAC on a freshly built transistor-level mixer in
/// `config.mode`.
PacResult pac_conversion_gain(const MixerConfig& config, double f_if_hz = 5e6);

struct PnoiseResult {
  bool pss_converged = false;
  double output_noise_v2_hz = 0.0;  // total differential output PSD at f_if
  double nf_dsb_db = 0.0;           // DSB NF referenced to the 50-ohm source
  double gain_db = 0.0;             // EMF-referenced conversion gain
};

/// Transistor-level PNOISE: every device's noise sources are evaluated at
/// each point of the PSS orbit (cyclostationary intensities) and folded
/// through the conversion matrix with full inter-sideband correlation. The
/// DSB noise figure is referenced to the RF port's 50-ohm source.
PnoiseResult pac_nf_dsb(const MixerConfig& config, double f_if_hz = 5e6);

}  // namespace rfmix::core
