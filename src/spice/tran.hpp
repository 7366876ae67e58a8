// Transient analysis.
//
// Two stepping modes:
//  * fixed-step (the default for RF measurements): uniform samples make the
//    downstream FFT-based spectral measurements exact under coherent
//    sampling, with trapezoidal integration after a backward-Euler start.
//  * adaptive: local-truncation-error controlled step doubling/halving for
//    general circuits (start-up transients, switching studies).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/op.hpp"

namespace rfmix::spice {

struct TranOptions {
  NewtonOptions newton;
  Integrator integrator = Integrator::kTrapezoidal;
  /// Adaptive: the step halves while the LTE estimate exceeds 1e-4 V (down
  /// to 1e-4 * dt) and grows 1.5x while it stays under a tenth of that.
  bool adaptive = false;
  /// Skip the DC operating point and start from a provided state, which
  /// must have the circuit's layout (std::invalid_argument otherwise).
  const Solution* initial_state = nullptr;
};

struct TranResult {
  std::vector<double> time_s;
  /// One waveform per probed node, in the order probes were given.
  std::vector<std::vector<double>> waveforms;
  /// Final state, usable as the next run's initial_state.
  Solution final_state;

  const std::vector<double>& waveform(std::size_t probe_index) const {
    return waveforms.at(probe_index);
  }
};

/// A probe: differential voltage v(p) - v(m).
struct Probe {
  NodeId p = kGround;
  NodeId m = kGround;
  std::string label;
};

/// Run transient from t=0 to t_stop with nominal step dt, recording the
/// probed differential voltages at every accepted step (uniform grid in
/// fixed-step mode).
TranResult transient(Circuit& ckt, double t_stop, double dt, const std::vector<Probe>& probes,
                     const TranOptions& opts = {});

}  // namespace rfmix::spice
