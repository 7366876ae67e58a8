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

#include "core/circuits.hpp"
#include "core/mixer_config.hpp"

namespace rfmix::core {

struct PacResult {
  bool pss_converged = false;
  int pss_periods = 0;
  /// Conversion gain from the RF gate voltage at f_lo + f_if to the
  /// differential IF output at f_if [dB].
  double conversion_gain_db = 0.0;
  /// Gain from the image sideband (f_lo - f_if) for reference.
  double image_gain_db = 0.0;
};

struct PacOptions {
  int samples_per_period = 64;
  int harmonics = 6;
};

/// Run PSS + PAC on a freshly built transistor-level mixer in
/// `config.mode`.
PacResult pac_conversion_gain(const MixerConfig& config, double f_if_hz = 5e6,
                              const PacOptions& opts = {});

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
PnoiseResult pac_nf_dsb(const MixerConfig& config, double f_if_hz = 5e6,
                        const PacOptions& opts = {});

}  // namespace rfmix::core
