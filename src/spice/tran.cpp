#include "spice/tran.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "spice/mna.hpp"
#include "spice/solver.hpp"

namespace rfmix::spice {

namespace {

// Adaptive stepping: target local truncation error [V], and the smallest
// step as a fraction of the nominal dt.
constexpr double kLteTol = 1e-4;
constexpr double kDtMinFactor = 1e-4;

NewtonResult solve_timepoint(const Circuit& ckt, const Solution& guess, double time,
                             double dt, const TranOptions& opts, SolverSession& session) {
  StampParams sp;
  sp.mode = AnalysisMode::kTransient;
  sp.time = time;
  sp.dt = dt;
  sp.integrator = opts.integrator;
  return solve_newton(ckt, guess, sp, opts.newton, &session);
}

void accept_step(Circuit& ckt, const Solution& x, double time, double dt,
                 const TranOptions& opts) {
  StampParams sp;
  sp.mode = AnalysisMode::kTransient;
  sp.time = time;
  sp.dt = dt;
  sp.integrator = opts.integrator;
  for (const auto& dev : ckt.devices()) dev->tran_accept(x, sp);
}

}  // namespace

TranResult transient(Circuit& ckt, double t_stop, double dt, const std::vector<Probe>& probes,
                     const TranOptions& opts) {
  if (!(dt > 0.0) || !(t_stop > 0.0))
    throw std::invalid_argument("transient: t_stop and dt must be positive");

  RFMIX_OBS_SCOPED_TIMER("spice.tran");
  RFMIX_OBS_TRACE_SCOPE("spice.tran");
  RFMIX_OBS_COUNT("spice.tran.calls");

  // One session for the whole run: the DC pattern differs from the
  // transient pattern (companion stamps), so the map rebuilds once at the
  // first timestep and is then reused across every step and iteration.
  SolverSession session;

  Solution x0;
  if (opts.initial_state != nullptr) {
    ckt.finalize();
    x0 = *opts.initial_state;
  } else {
    x0 = dc_operating_point(ckt, opts.newton, &session);
  }

  for (const auto& dev : ckt.devices()) dev->tran_begin(x0);

  TranResult result;
  result.waveforms.resize(probes.size());
  auto record = [&](double t, const Solution& x) {
    result.time_s.push_back(t);
    for (std::size_t i = 0; i < probes.size(); ++i)
      result.waveforms[i].push_back(x.vd(probes[i].p, probes[i].m));
  };
  record(0.0, x0);

  Solution x = x0;
  double t = 0.0;

  if (!opts.adaptive) {
    // Fixed grid. The first step uses backward Euler regardless of the
    // requested integrator (the trapezoidal companion needs a consistent
    // initial branch current, which BE establishes).
    const long steps = static_cast<long>(std::llround(t_stop / dt));
    TranOptions step_opts = opts;
    for (long k = 1; k <= steps; ++k) {
      step_opts.integrator =
          (k == 1) ? Integrator::kBackwardEuler : opts.integrator;
      const double t_new = static_cast<double>(k) * dt;
      RFMIX_OBS_COUNT("spice.tran.steps_attempted");
      NewtonResult nr = solve_timepoint(ckt, x, t_new, dt, step_opts, session);
      if (!nr.converged) {
        // One retry from a damped restart before giving up: freeze the
        // previous solution as the guess with a tighter step clamp.
        RFMIX_OBS_COUNT("spice.tran.steps_rejected");
        RFMIX_OBS_COUNT("spice.tran.steps_attempted");
        TranOptions retry = step_opts;
        retry.newton.max_step_v = std::min(0.05, step_opts.newton.max_step_v);
        retry.newton.max_iterations = step_opts.newton.max_iterations * 2;
        nr = solve_timepoint(ckt, x, t_new, dt, retry, session);
        if (!nr.converged) {
          RFMIX_OBS_COUNT("spice.tran.steps_rejected");
          throw ConvergenceError("transient: Newton failed at t=" + std::to_string(t_new));
        }
      }
      RFMIX_OBS_COUNT("spice.tran.steps_accepted");
      x = nr.solution;
      accept_step(ckt, x, t_new, dt, step_opts);
      record(t_new, x);
    }
    result.final_state = x;
    return result;
  }

  // Adaptive stepping: LTE estimated from the divided difference of the two
  // most recent derivative estimates (standard trapezoidal LTE ~ dt^3 x''' /12
  // approximated by comparing with the BE prediction).
  double h = dt;
  const double h_min = dt * kDtMinFactor;
  Solution x_prev = x0;
  while (t < t_stop - 1e-18) {
    h = std::min(h, t_stop - t);
    const double t_new = t + h;
    RFMIX_OBS_COUNT("spice.tran.steps_attempted");
    NewtonResult nr = solve_timepoint(ckt, x, t_new, h, opts, session);
    if (!nr.converged) {
      RFMIX_OBS_COUNT("spice.tran.steps_rejected");
      h *= 0.5;
      if (h < h_min)
        throw ConvergenceError("transient(adaptive): step underflow at t=" + std::to_string(t));
      continue;
    }
    // LTE proxy: difference between trapezoidal result and the linear
    // extrapolation from the previous two points.
    double err = 0.0;
    const int nv = ckt.layout().num_nodes - 1;
    for (int i = 0; i < nv; ++i) {
      const double pred = 2.0 * x.raw()[static_cast<std::size_t>(i)] -
                          x_prev.raw()[static_cast<std::size_t>(i)];
      err = std::max(err, std::abs(nr.solution.raw()[static_cast<std::size_t>(i)] - pred));
    }
    if (err > kLteTol && h > h_min * 2.0) {
      RFMIX_OBS_COUNT("spice.tran.steps_rejected");
      h *= 0.5;
      continue;
    }
    RFMIX_OBS_COUNT("spice.tran.steps_accepted");
    x_prev = x;
    x = nr.solution;
    t = t_new;
    accept_step(ckt, x, t_new, h, opts);
    record(t, x);
    if (err < kLteTol * 0.1) h *= 1.5;
  }
  result.final_state = x;
  return result;
}

}  // namespace rfmix::spice
