// Periodic steady state (PSS) by the brute-force method: step the
// transient's grid (TimeGrid, tran.hpp) at dt = T / samples under the
// circuit's periodic (LO) drive until the state repeats from one period to
// the next. The last period's samples, transient samples bit for bit, are
// the large-signal orbit that periodic AC (PAC) analyses linearize around —
// see core/pac_transistor.hpp for that pipeline and lptv::lower_sampled_orbit
// (lptv/lptv.hpp) for its back end.
#pragma once

#include "spice/circuit.hpp"
#include "spice/op.hpp"

namespace rfmix::spice {

struct PssOptions {
  int samples_per_period = 64;
  int min_periods = 4;       // always integrate at least this many periods
  int max_periods = 400;
  /// Periodicity criterion: max |x(t+T) - x(t)| over node voltages [V].
  double tol_v = 50e-6;
};

struct PssResult {
  bool converged = false;
  int periods_used = 0;
  double period_s = 0.0;
  double residual_v = 0.0;   // achieved period-to-period deviation
  /// The last period's samples_per_period solutions, sample k at
  /// t = (k + 1) * T / samples_per_period into it (the last closes it).
  std::vector<Solution> samples;
};

/// Find the periodic steady state of `ckt` under its own periodic sources
/// with fundamental period `period_s`. All sources must be periodic in
/// `period_s` (or constant). Throws ConvergenceError if a transient step
/// fails; returns converged=false if the orbit has not settled within
/// max_periods (the best available period is still returned).
PssResult periodic_steady_state(Circuit& ckt, double period_s,
                                const PssOptions& opts = {});

}  // namespace rfmix::spice
