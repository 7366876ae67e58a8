// Linear periodically-time-varying (LPTV) circuit analysis by the harmonic
// conversion-matrix method — the formulation behind commercial PAC/PNOISE.
//
// Model: a linear circuit in which some conductances / transconductances
// vary periodically with the LO, G(t) = sum_m G_m e^{j m w_lo t}. In
// sinusoidal steady state at baseband frequency f the solution is a set of
// sideband phasors X_k at frequencies f + k*f_lo, coupled by
//
//    sum_m  G_m X_{k-m}  +  j 2 pi (f + k f_lo) C X_k  =  B_k .
//
// Truncating to |k| <= K gives a block linear system of size (2K+1)*N.
// Solving it yields every sideband transfer function at once: conversion
// gain (input sideband +-1 -> output sideband 0 for a down-converter) and,
// via one adjoint solve, the noise folded from every sideband of every
// source into the output — including cyclostationary switch noise with its
// inter-sideband correlations.
//
// Circuits come from two front ends: named elements (LptvCircuit's add_*
// calls, for hand-built models) and a sampled periodic orbit lowered by
// lower_sampled_orbit (for transistor-level PAC/PNOISE).
#pragma once

#include <complex>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mathx/matrix.hpp"
#include "mathx/sweep_lu.hpp"

namespace rfmix::lptv {

using Complex = std::complex<double>;

/// Periodic waveform sampled uniformly over one LO period.
using PeriodicWave = std::vector<double>;

/// Generate a trapezoidal square wave over `n` samples: value `lo` for the
/// first half, `hi` for the second, with linear transitions of fractional
/// width `rise_frac` (of the full period) centered on the switching
/// instants, and an optional phase shift in samples.
PeriodicWave square_wave(int n, double lo, double hi, double rise_frac = 0.02,
                         double phase_frac = 0.0);

/// Raised-cosine (sinusoidal) waveform: offset + amp * cos(theta + phase).
PeriodicWave cosine_wave(int n, double offset, double amp, double phase_rad = 0.0);

class LptvCircuit {
 public:
  /// `num_samples` is the waveform resolution per LO period; it bounds the
  /// highest usable harmonic count (K <= num_samples/4 is safe).
  explicit LptvCircuit(int num_samples = 256) : num_samples_(num_samples) {}

  int num_samples() const { return num_samples_; }

  /// Nodes are dense integers; 0 is ground. Returns the new node id.
  int add_node() { return ++max_node_; }
  int num_nodes() const { return max_node_ + 1; }

  // -- static (time-invariant) elements --------------------------------
  void add_conductance(int a, int b, double g);
  void add_resistor(int a, int b, double ohms) { add_conductance(a, b, 1.0 / ohms); }
  void add_capacitance(int a, int b, double c);
  /// Current gm*(v(cp)-v(cm)) flows from p to m.
  void add_vccs(int p, int m, int cp, int cm, double gm);
  /// Reactive twin of add_vccs: current c*d/dt(v(cp)-v(cm)) flows from p
  /// to m (an off-diagonal entry of a capacitance matrix).
  void add_transcapacitance(int p, int m, int cp, int cm, double c);

  // -- periodic elements ------------------------------------------------
  /// Conductance g(theta) between a and b (e.g. a MOS switch channel).
  void add_periodic_conductance(int a, int b, PeriodicWave g);
  /// Transconductance gm(theta): current gm(theta)*(v(cp)-v(cm)) from p to m
  /// (e.g. a commutated Gm stage).
  void add_periodic_vccs(int p, int m, int cp, int cm, PeriodicWave gm);

  // -- noise sources ----------------------------------------------------
  /// Stationary current noise between p and m with one-sided PSD psd(f)
  /// [A^2/Hz]. Folds from every sideband with the PSD evaluated at that
  /// sideband's absolute frequency.
  void add_noise_current(int p, int m, std::function<double(double)> psd,
                         std::string label);
  /// Cyclostationary white current noise with periodic intensity s(theta)
  /// [A^2/Hz] (e.g. 4kT*g(theta) for a switch). Sideband correlations are
  /// handled through the Fourier coefficients of s.
  void add_cyclo_noise_current(int p, int m, PeriodicWave s_theta, std::string label);

  // introspection used by the analysis ---------------------------------
  struct StaticG { int a, b; double g; };
  struct StaticC { int a, b; double c; };
  struct StaticGm { int p, m, cp, cm; double gm; };
  struct StaticCm { int p, m, cp, cm; double c; };
  struct PeriodicG { int a, b; PeriodicWave g; };
  struct PeriodicGm { int p, m, cp, cm; PeriodicWave gm; };
  struct StationaryNoise { int p, m; std::function<double(double)> psd; std::string label; };
  struct CycloNoise { int p, m; PeriodicWave s; std::string label; };

  const std::vector<StaticG>& static_g() const { return static_g_; }
  const std::vector<StaticC>& static_c() const { return static_c_; }
  const std::vector<StaticGm>& static_gm() const { return static_gm_; }
  const std::vector<StaticCm>& static_cm() const { return static_cm_; }
  const std::vector<PeriodicG>& periodic_g() const { return periodic_g_; }
  const std::vector<PeriodicGm>& periodic_gm() const { return periodic_gm_; }
  const std::vector<StationaryNoise>& stationary_noise() const { return stationary_noise_; }
  const std::vector<CycloNoise>& cyclo_noise() const { return cyclo_noise_; }

  /// Track node ids referenced by devices so num_nodes() is correct even if
  /// callers pass raw ints instead of add_node() results.
  void note_node(int n) { max_node_ = std::max(max_node_, n); }

 private:
  void check_wave(const PeriodicWave& w) const;

  int num_samples_;
  int max_node_ = 0;
  std::vector<StaticG> static_g_;
  std::vector<StaticC> static_c_;
  std::vector<StaticGm> static_gm_;
  std::vector<StaticCm> static_cm_;
  std::vector<PeriodicG> periodic_g_;
  std::vector<PeriodicGm> periodic_gm_;
  std::vector<StationaryNoise> stationary_noise_;
  std::vector<CycloNoise> cyclo_noise_;
};

/// LPTV node of MNA unknown `u`: u + 1, so ground (-1) maps to node 0.
constexpr int orbit_node(int u) { return u + 1; }

/// Lower a sampled periodic orbit to an LptvCircuit. `g_samples` holds the
/// small-signal MNA Jacobian G(t_s) at uniformly spaced times over one LO
/// period (all the same square dimension; the sample count becomes the
/// circuit's num_samples(), so a ConversionAnalysis at K harmonics needs
/// at least 4K+2). `c` is the constant capacitance matrix. Unknown u
/// becomes node orbit_node(u); each G entry nonzero anywhere on the orbit
/// becomes a grounded periodic VCCS and each nonzero C entry a grounded
/// transcapacitance. Orbit noise sources go on with add_cyclo_noise_current
/// over the same node numbering.
LptvCircuit lower_sampled_orbit(const std::vector<mathx::MatrixD>& g_samples,
                                const mathx::MatrixD& c);

struct ConversionOptions {
  double f_lo = 1e9;   // LO frequency [Hz]
  int harmonics = 8;   // K: sidebands -K..K are retained
};

/// Result of a periodic AC solve: node voltages at each sideband.
struct PacSolution {
  int harmonics = 0;
  double f_base = 0.0;
  double f_lo = 0.0;
  int num_nodes = 0;
  /// x[(k + K) * num_unknowns + (node-1)]: sideband-k phasor of each node.
  std::vector<Complex> x;

  Complex v(int k, int node) const;
  Complex vd(int k, int p, int m) const { return v(k, p) - v(k, m); }
  double sideband_freq(int k) const { return f_base + k * f_lo; }
};

/// Per-source noise contribution at the output.
struct LptvNoiseContribution {
  std::string label;
  double output_psd_v2_hz = 0.0;
};

struct LptvNoiseResult {
  double f_base = 0.0;
  double total_output_psd_v2_hz = 0.0;
  std::vector<LptvNoiseContribution> contributions;
};

/// The conversion-matrix engine for one (circuit, f_lo, K) combination.
/// Assembly is per base frequency; factorizations are cached per call.
class ConversionAnalysis {
 public:
  /// Keeps a reference to `ckt`, which must outlive the analysis (hence no
  /// temporaries).
  ConversionAnalysis(const LptvCircuit& ckt, ConversionOptions opts);
  ConversionAnalysis(LptvCircuit&&, ConversionOptions) = delete;
  ConversionAnalysis(const ConversionAnalysis&) = delete;
  ConversionAnalysis& operator=(const ConversionAnalysis&) = delete;

  /// The assembled block system at one base frequency, reusable across any
  /// number of injection and adjoint solves. Forward and adjoint LU
  /// factorizations are built lazily on first use, so a gain point pays
  /// one factorization and a gain + noise point two — instead of one per
  /// solve. Move-only; cheap to return by value.
  class Factored {
   public:
    ~Factored();
    Factored(Factored&&) noexcept;
    Factored& operator=(Factored&&) noexcept;

    /// Unit AC current from p to m at sideband k_in (cf. the analysis-level
    /// wrapper of the same name).
    PacSolution solve_current_injection(int p, int m, int k_in) const;

    /// Output noise at (out_p, out_m), sideband 0 (one adjoint solve).
    LptvNoiseResult output_noise(int out_p, int out_m) const;

    double f_base() const { return f_base_; }

   private:
    friend class ConversionAnalysis;
    Factored(const ConversionAnalysis* an, double f_base);

    const ConversionAnalysis* an_;
    double f_base_;
    struct System;
    std::shared_ptr<System> sys_;
  };

  /// Assemble the block system once at f_base; solve against it repeatedly.
  Factored factor(double f_base) const;

  /// The (2K+1)·N block system at f_base, as factor() stamps it; the
  /// adjoint factors its transpose.
  mathx::TripletMatrix<Complex> block_system(double f_base) const;

  /// Solve with a unit AC current injected from node p to node m at sideband
  /// k_in, at baseband frequency f_base. Returns all node voltages at all
  /// sidebands (transimpedances, V/A).
  PacSolution solve_current_injection(double f_base, int p, int m, int k_in) const;

  /// Conversion transimpedance: inject at (in_p, in_m) sideband k_in, read
  /// differential voltage at (out_p, out_m) sideband k_out [V/A].
  Complex conversion_transimpedance(double f_base, int in_p, int in_m, int k_in,
                                    int out_p, int out_m, int k_out) const;

  /// Output noise PSD at (out_p, out_m), sideband 0, baseband frequency
  /// f_base, folding all sources across all sidebands.
  LptvNoiseResult output_noise(double f_base, int out_p, int out_m) const;

  int harmonics() const { return opts_.harmonics; }
  double f_lo() const { return opts_.f_lo; }

 private:

  /// Fourier coefficients of a periodic waveform, index m in [-2K, 2K].
  std::vector<Complex> fourier_coeffs(const PeriodicWave& w) const;

  const LptvCircuit& ckt_;
  ConversionOptions opts_;
  int n_unknowns_;  // nodes minus ground
  int block_count_; // 2K+1

  // One analyze-once sweep per direction (forward, adjoint). The
  // block-system sparsity is fixed by (circuit, K), not by f_base, so the
  // first factor pays a full analysis per direction and every later
  // base-frequency point only refactors. Mutable: factor() is const but
  // warms these.
  mutable mathx::SweepLu<Complex> lu_fwd_, lu_adj_;
};

}  // namespace rfmix::lptv
