// DC operating-point solver: Newton-Raphson with step damping, plus gmin
// stepping and source stepping homotopies for hard bias points.
#pragma once

#include <string>

#include "spice/circuit.hpp"

namespace rfmix::spice {

class SolverSession;

struct NewtonOptions {
  int max_iterations = 200;
  double gmin = 1e-12;
  double max_step_v = 0.5;  // per-iteration Newton step clamp [V]
};

struct NewtonResult {
  Solution solution;
  bool converged = false;
  int iterations = 0;
};

/// One Newton solve at fixed StampParams, starting from `initial`. Pass a
/// SolverSession to reuse the stamp mapping / symbolic LU caches across
/// calls (timesteps, sweep points); with no session each call opens a
/// private one.
NewtonResult solve_newton(const Circuit& ckt, const Solution& initial,
                          const StampParams& params, const NewtonOptions& opts,
                          SolverSession* session = nullptr);

/// Full DC operating point: plain Newton, then gmin stepping, then source
/// stepping. Throws ConvergenceError if every strategy fails.
Solution dc_operating_point(Circuit& ckt, const NewtonOptions& opts = {},
                            SolverSession* session = nullptr);

/// Total power delivered by sources / dissipated in devices at `op` [W].
double total_dissipated_power(const Circuit& ckt, const Solution& op);

class ConvergenceError : public std::runtime_error {
 public:
  explicit ConvergenceError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace rfmix::spice
