// Mixer-first / N-path input-impedance analysis.
//
// A passive mixer-first front end is N switches clocked by non-overlapping
// phases (lo_gen.hpp), each connecting the shared RF node to one baseband
// impedance Zbb (R, or R || C). Around every LO harmonic the switches
// frequency-translate Zbb up to RF, so the port sees a high-Q bandpass
// impedance centered at f_LO whose bandwidth is set by the *baseband* pole
// — the N-path filter (Roy & Sharad, arXiv:1903.09564; Al Kubaisy et al.,
// arXiv:2212.03162).
//
// This is exactly the mathematical object the LPTV conversion-matrix
// engine computes: we build the switch set as periodic conductances, inject
// a unit AC current at the RF port at absolute frequency f (sideband 0 of
// the conversion system), and read
//   * Zin(f)  — the port voltage at sideband 0, with the source resistance
//               de-embedded,
//   * S11(f)  — the reflection coefficient versus r_source,
//   * harmonic re-radiation — the voltages at sidebands k != 0, i.e. at
//     |f + k*f_LO|. For an ideal N-phase set only k = multiples of +-N
//     survive, so a tone near f_LO re-radiates near (N-1)*f_LO and
//     (N+1)*f_LO; a 4-phase set therefore re-emits (and folds) at 3*f_LO
//     while an 8-phase set pushes that to 7*f_LO — the harmonic-rejection
//     argument for more phases.
//
// A frequency sweep builds one ConversionAnalysis per spec and factors every
// point cold, all points in parallel on the runtime pool: byte-identical at
// any thread count and to a one-point sweep of each frequency.
#pragma once

#include <complex>
#include <vector>

#include "lptv/lptv.hpp"
#include "npath/lo_gen.hpp"

namespace rfmix::npath {

/// Full description of one N-path front end + analysis resolution.
struct NpathSpec {
  LoSpec lo;                  // clock phase set (N, duty, edges, guard)
  double f_lo_hz = 1e9;       // LO frequency
  double r_source = 50.0;     // source/port resistance (also the S11 Z0)
  double switch_ron = 10.0;   // switch ON resistance (g_on = 1/ron)
  double zbb_r = 1e3;         // per-path baseband resistance to ground
  double zbb_c = 0.0;         // per-path baseband capacitance (R || C); 0 = none
  double c_rf = 0.0;          // optional shunt capacitance at the RF node
  int harmonics = 16;         // K: conversion-matrix sidebands -K..K
};

/// Throws std::invalid_argument on an unphysical or under-resolved spec
/// (validates the LoSpec too; requires finite values, lo.samples >=
/// 4*harmonics + 2 and harmonics >= phases + 1 so the +-N re-radiation
/// sidebands are retained).
void validate(const NpathSpec& spec);

/// The assembled LPTV network: RF port node, N baseband nodes, source
/// resistance and baseband loads attached. ckt owns the waveforms, so keep
/// it alive for the lifetime of any ConversionAnalysis built on it.
struct NpathCircuit {
  lptv::LptvCircuit ckt;
  int rf = 0;
  std::vector<int> bb;
};

NpathCircuit build_npath_circuit(const NpathSpec& spec);

/// One frequency point of the port sweep.
struct ZinPoint {
  double f_hz = 0.0;
  std::complex<double> zin;   // mixer input impedance, source de-embedded
  std::complex<double> s11;   // (zin - r_source) / (zin + r_source)
  double rerad_minus = 0.0;   // |V(k=-N)| / |V(0)|: re-radiation at |f - N f_LO|
  double rerad_plus = 0.0;    // |V(k=+N)| / |V(0)|: re-radiation at f + N f_LO
  double rerad_3lo = 0.0;     // relative re-radiated amplitude near 3 f_LO
};

/// Sweep-level figures of merit, derived deterministically from the points.
struct ZinSummary {
  double f_peak_hz = 0.0;      // frequency of max |zin|
  double zin_peak_ohm = 0.0;   // |zin| at the peak
  double zin_floor_ohm = 0.0;  // min |zin| over the sweep (out-of-band floor)
  double bw_3db_hz = 0.0;      // width of |zin| >= peak/sqrt(2), interpolated
                               // (0 when an edge lies outside the sweep)
  double q = 0.0;              // f_peak / bw_3db (0 when bw unresolved)
  double rerad_3lo_max = 0.0;  // max over points of rerad_3lo
};

struct ZinSweep {
  std::vector<double> freqs_hz;
  std::vector<ZinPoint> points;
  ZinSummary summary;
};

/// Zin/S11 at every frequency in `freqs_hz` (absolute frequencies, need not
/// relate to f_lo). Points run concurrently on the runtime pool; results
/// are bit-identical at any thread count.
ZinSweep zin_sweep(const NpathSpec& spec, std::vector<double> freqs_hz);

}  // namespace rfmix::npath
