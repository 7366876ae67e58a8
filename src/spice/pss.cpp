#include "spice/pss.hpp"

#include <cmath>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "spice/mna.hpp"
#include "spice/solver.hpp"

namespace rfmix::spice {

PssResult periodic_steady_state(Circuit& ckt, double period_s, const PssOptions& opts) {
  if (!(period_s > 0.0)) throw std::invalid_argument("PSS: period must be positive");
  if (opts.samples_per_period < 4)
    throw std::invalid_argument("PSS: need >= 4 samples per period");

  RFMIX_OBS_SCOPED_TIMER("spice.pss");
  RFMIX_OBS_TRACE_SCOPE("spice.pss");
  RFMIX_OBS_COUNT("spice.pss.calls");

  // One session across the DC start and every shooting period.
  SolverSession session;

  Solution x = dc_operating_point(ckt, opts.newton, &session);
  for (const auto& dev : ckt.devices()) dev->tran_begin(x);

  const MnaLayout layout = ckt.layout();
  const int nv = layout.num_nodes - 1;
  const double dt = period_s / opts.samples_per_period;

  PssResult result;
  result.period_s = period_s;

  std::vector<Solution> period(static_cast<std::size_t>(opts.samples_per_period),
                               Solution::zeros(layout));
  std::vector<Solution> prev_period;

  StampParams sp;
  sp.mode = AnalysisMode::kTransient;
  sp.dt = dt;

  long step = 0;
  for (int p = 0; p < opts.max_periods; ++p) {
    RFMIX_OBS_COUNT("spice.pss.periods");
    for (int k = 0; k < opts.samples_per_period; ++k) {
      ++step;
      sp.time = static_cast<double>(step) * dt;
      // First step backward Euler (consistent start), trapezoidal after.
      sp.integrator = step == 1 ? Integrator::kBackwardEuler : Integrator::kTrapezoidal;
      NewtonResult nr = solve_newton(ckt, x, sp, opts.newton, &session);
      if (!nr.converged) {
        NewtonOptions retry = opts.newton;
        retry.max_step_v = 0.05;
        retry.max_iterations = opts.newton.max_iterations * 2;
        nr = solve_newton(ckt, x, sp, retry, &session);
        if (!nr.converged)
          throw ConvergenceError("PSS: transient Newton failed at t=" +
                                 std::to_string(sp.time));
      }
      x = nr.solution;
      for (const auto& dev : ckt.devices()) dev->tran_accept(x, sp);
      period[static_cast<std::size_t>(k)] = x;
    }
    result.periods_used = p + 1;

    if (!prev_period.empty() && p + 1 >= opts.min_periods) {
      double dev_max = 0.0;
      for (int k = 0; k < opts.samples_per_period; ++k) {
        const auto& a = period[static_cast<std::size_t>(k)].raw();
        const auto& b = prev_period[static_cast<std::size_t>(k)].raw();
        for (int i = 0; i < nv; ++i)
          dev_max = std::max(dev_max, std::abs(a[static_cast<std::size_t>(i)] -
                                               b[static_cast<std::size_t>(i)]));
      }
      result.residual_v = dev_max;
      if (dev_max < opts.tol_v) {
        result.converged = true;
        result.samples = period;
        return result;
      }
    }
    prev_period = period;
  }
  result.samples = period;
  return result;
}

}  // namespace rfmix::spice
