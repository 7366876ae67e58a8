// Small-signal AC sweep: linearize at the DC operating point and solve the
// complex MNA system over a list of frequencies.
#pragma once

#include <complex>
#include <functional>
#include <vector>

#include "mathx/sparse.hpp"
#include "spice/circuit.hpp"

namespace rfmix::spice {

struct AcResult {
  std::vector<double> freqs_hz;
  // One solution vector per frequency, in MNA unknown order.
  std::vector<mathx::VectorC> solutions;
  MnaLayout layout;

  std::complex<double> v(std::size_t freq_index, NodeId node) const {
    const int u = layout.node_unknown(node);
    return u < 0 ? std::complex<double>{} : solutions[freq_index][static_cast<std::size_t>(u)];
  }
  std::complex<double> vd(std::size_t freq_index, NodeId p, NodeId m) const {
    return v(freq_index, p) - v(freq_index, m);
  }
};

/// Logarithmically spaced frequency grid (inclusive of endpoints).
std::vector<double> log_space(double f_start, double f_stop, int points);

/// Linearly spaced frequency grid (inclusive of endpoints).
std::vector<double> lin_space(double f_start, double f_stop, int points);

/// The point loop of ac_sweep and noise_analysis: at every frequency,
/// assemble Y(f) x = b at `op` (finalized `ckt`), factor Y and call
/// solve(i, lu, b). Point 0 analyzes serially, exporting its symbolic and
/// stamp map when more points follow; the rest run on the runtime pool,
/// refactoring strictly against them or analyzing afresh. Every factor is
/// byte-identical to SparseLu(CscMatrix(Y)); spice.lu.* counts do not
/// depend on scheduling.
using AcPointSolve = std::function<void(
    std::size_t, const mathx::SparseLu<std::complex<double>>&, const mathx::VectorC&)>;
void for_each_ac_point(const Circuit& ckt, const Solution& op,
                       const std::vector<double>& freqs_hz, double gmin,
                       const AcPointSolve& solve);

/// Run the AC sweep. Sources with a nonzero AC magnitude drive the system.
AcResult ac_sweep(Circuit& ckt, const Solution& op, const std::vector<double>& freqs_hz,
                  double gmin = 1e-12);

}  // namespace rfmix::spice
