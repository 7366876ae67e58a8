// Transient analysis on one fixed grid t = k * dt: uniform samples make the
// downstream FFT-based spectral measurements exact under coherent sampling.
#pragma once

#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/op.hpp"
#include "spice/solver.hpp"

namespace rfmix::spice {

struct TranOptions {
  NewtonOptions newton;
  /// Skip the DC operating point and start from a provided state, which
  /// must have the circuit's layout (std::invalid_argument otherwise).
  const Solution* initial_state = nullptr;
};

/// The time loop of transient() and periodic_steady_state(). Construction
/// solves the start (the DC operating point, or opts.initial_state) and
/// begins every device's transient. step() solves the next grid point,
/// backward Euler first (it sets the branch currents the trapezoidal
/// companion needs) and trapezoidal after, retries a failed Newton solve
/// once from the previous state with a 0.05 V clamp and twice the
/// iterations (else throws ConvergenceError), and accepts the solution.
/// Counts spice.tran.steps_{attempted,accepted,rejected}.
class TimeGrid {
 public:
  TimeGrid(Circuit& ckt, double dt, const TranOptions& opts = {});
  /// Advance one step; returns the accepted solution.
  const Solution& step();
  const Solution& state() const { return x_; }
  double time() const { return static_cast<double>(k_) * dt_; }

 private:
  Circuit& ckt_;
  double dt_;
  NewtonOptions newton_;
  // One session from the DC start on: the transient pattern (companion
  // stamps) differs from the DC one, so its map rebuilds once, at step 1.
  SolverSession session_;
  Solution x_;
  long k_ = 0;
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

/// Run transient from t=0 to t_stop on the grid t = k * dt, recording the
/// probed differential voltages at t=0 and at every step.
TranResult transient(Circuit& ckt, double t_stop, double dt, const std::vector<Probe>& probes,
                     const TranOptions& opts = {});

}  // namespace rfmix::spice
