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
// Truncating to |k| <= K gives a block linear system of size (2K+1)*N,
// factored once per base frequency. Solving it yields every sideband
// transfer function at once: conversion gain (input sideband +-1 -> output
// sideband 0 for a down-converter) and, via one transposed solve with the
// same LU, the noise folded from every sideband of every source into the
// output — including cyclostationary switch noise with its inter-sideband
// correlations.
//
// Circuits come from two front ends: named elements (LptvCircuit's add_*
// calls, for hand-built models) and a sampled periodic orbit lowered by
// lower_sampled_orbit (for transistor-level PAC/PNOISE).
#pragma once

#include <complex>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mathx/matrix.hpp"
#include "mathx/sparse.hpp"

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
  /// Current gm*(v(cp)-v(cm)) flows from p to m.
  void add_vccs(int p, int m, int cp, int cm, double gm);
  /// Reactive twin of add_vccs: current c*d/dt(v(cp)-v(cm)) flows from p
  /// to m (an off-diagonal entry of a capacitance matrix).
  void add_transcapacitance(int p, int m, int cp, int cm, double c);
  /// Two-terminal elements are VCCSs controlled by their own terminals.
  void add_conductance(int a, int b, double g) { add_vccs(a, b, a, b, g); }
  void add_resistor(int a, int b, double ohms) { add_vccs(a, b, a, b, 1.0 / ohms); }
  void add_capacitance(int a, int b, double c) { add_transcapacitance(a, b, a, b, c); }

  // -- periodic elements ------------------------------------------------
  /// Transconductance gm(theta): current gm(theta)*(v(cp)-v(cm)) from p to m
  /// (e.g. a commutated Gm stage).
  void add_periodic_vccs(int p, int m, int cp, int cm, PeriodicWave gm);
  /// Conductance g(theta) between a and b (e.g. a MOS switch channel).
  void add_periodic_conductance(int a, int b, PeriodicWave g) {
    add_periodic_vccs(a, b, a, b, std::move(g));
  }

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
  struct StaticGm { int p, m, cp, cm; double gm; };
  struct StaticCm { int p, m, cp, cm; double c; };
  struct PeriodicGm { int p, m, cp, cm; PeriodicWave gm; };
  struct StationaryNoise { int p, m; std::function<double(double)> psd; std::string label; };
  struct CycloNoise { int p, m; PeriodicWave s; std::string label; };

  const std::vector<StaticGm>& static_gm() const { return static_gm_; }
  const std::vector<StaticCm>& static_cm() const { return static_cm_; }
  const std::vector<PeriodicGm>& periodic_gm() const { return periodic_gm_; }
  const std::vector<StationaryNoise>& stationary_noise() const { return stationary_noise_; }
  const std::vector<CycloNoise>& cyclo_noise() const { return cyclo_noise_; }

  /// Track node ids referenced by devices so num_nodes() is correct even if
  /// callers pass raw ints instead of add_node() results. Throws
  /// std::invalid_argument for a negative id.
  void note_node(int n);

 private:
  void check_wave(const PeriodicWave& w) const;

  int num_samples_;
  int max_node_ = 0;
  std::vector<StaticGm> static_gm_;
  std::vector<StaticCm> static_cm_;
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
  /// x[(k + K) * num_unknowns + (node-1)]: sideband-k phasor of each node,
  /// sideband-major whatever order the block system numbers its unknowns in.
  std::vector<Complex> x;

  /// Throws std::invalid_argument unless 0 <= node < num_nodes and |k| <= K.
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
/// Assembly and factorization are per base frequency.
///
/// The constructor snapshots what every base frequency shares: the node
/// count, the order of the block system's unknowns and the Fourier
/// coefficients of each periodic element and cyclostationary source. The
/// circuit must therefore not change after construction. Nothing changes
/// after it either, so threads may factor base frequencies concurrently.
class ConversionAnalysis {
 public:
  /// Keeps a reference to `ckt`, which must outlive the analysis (hence no
  /// temporaries).
  ConversionAnalysis(const LptvCircuit& ckt, ConversionOptions opts);
  ConversionAnalysis(LptvCircuit&&, ConversionOptions) = delete;
  ConversionAnalysis(const ConversionAnalysis&) = delete;
  ConversionAnalysis& operator=(const ConversionAnalysis&) = delete;

  /// The block system at one base frequency, assembled and factored once
  /// on construction: every injection solves with that LU and every noise
  /// solve with its transpose, so a gain or gain + noise point costs one
  /// factorization. Safe to share across threads.
  class Factored {
   public:
    /// Unit AC current from p to m at sideband k_in (cf. the analysis-level
    /// wrapper of the same name).
    PacSolution solve_current_injection(int p, int m, int k_in) const;

    /// Output noise at (out_p, out_m), sideband 0 (one transposed solve).
    LptvNoiseResult output_noise(int out_p, int out_m) const;

    double f_base() const { return f_base_; }

   private:
    friend class ConversionAnalysis;
    Factored(const ConversionAnalysis* an, double f_base);

    const ConversionAnalysis* an_;
    double f_base_;
    mathx::SparseLu<Complex> lu_;
  };

  /// Assemble and factor the block system at f_base; solve against it
  /// repeatedly.
  Factored factor(double f_base) const { return Factored(this, f_base); }

  /// The (2K+1)·N block system at f_base, as factor() stamps it, with its
  /// unknowns numbered node-major (see unknown()).
  mathx::TripletMatrix<Complex> block_system(double f_base) const;

  /// Solve with a unit AC current injected from node p to node m at sideband
  /// k_in, at baseband frequency f_base. Returns all node voltages at all
  /// sidebands (transimpedances, V/A).
  PacSolution solve_current_injection(double f_base, int p, int m, int k_in) const {
    return factor(f_base).solve_current_injection(p, m, k_in);
  }

  /// Conversion transimpedance: inject at (in_p, in_m) sideband k_in, read
  /// differential voltage at (out_p, out_m) sideband k_out [V/A].
  Complex conversion_transimpedance(double f_base, int in_p, int in_m, int k_in,
                                    int out_p, int out_m, int k_out) const {
    return solve_current_injection(f_base, in_p, in_m, k_in).vd(k_out, out_p, out_m);
  }

  /// Output noise PSD at (out_p, out_m), sideband 0, baseband frequency
  /// f_base, folding all sources across all sidebands.
  LptvNoiseResult output_noise(double f_base, int out_p, int out_m) const {
    return factor(f_base).output_noise(out_p, out_m);
  }

  int harmonics() const { return opts_.harmonics; }
  double f_lo() const { return opts_.f_lo; }

 private:
  /// Fourier coefficients of a periodic waveform, index m in [-2K, 2K].
  std::vector<Complex> fourier_coeffs(const PeriodicWave& w) const;

  /// Block-system index of `node` at sideband k; -1 for ground. Node-major:
  /// a node's 2K+1 sidebands are adjacent, and nodes follow pos_.
  int unknown(int k, int node) const {
    return node == 0 ? -1 : pos_[static_cast<std::size_t>(node)] * block_count_ +
                                (k + opts_.harmonics);
  }

  /// Right-hand side of a unit current from p to m at sideband k (-1 at p,
  /// +1 at m); throws std::invalid_argument for a node or k out of range.
  std::vector<Complex> unit_injection(int p, int m, int k) const;

  const LptvCircuit& ckt_;
  ConversionOptions opts_;
  int n_unknowns_;  // nodes minus ground
  int block_count_; // 2K+1
  // Elimination position of each node (index 0, ground, unused): nodes in
  // ascending degree of the node coupling graph, so a hub goes last.
  std::vector<int> pos_;
  // fourier_coeffs() of each periodic_gm() and each cyclo_noise() entry.
  std::vector<std::vector<Complex>> gm_coeffs_, noise_coeffs_;
};

}  // namespace rfmix::lptv
