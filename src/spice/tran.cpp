#include "spice/tran.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace rfmix::spice {

TimeGrid::TimeGrid(Circuit& ckt, double dt, const TranOptions& opts)
    : ckt_(ckt), dt_(dt), newton_(opts.newton) {
  if (opts.initial_state != nullptr) {
    check_layout("transient", *opts.initial_state, ckt.finalize());
    x_ = *opts.initial_state;
  } else {
    x_ = dc_operating_point(ckt, newton_, &session_);
  }
  for (const auto& dev : ckt.devices()) dev->tran_begin(x_);
}

const Solution& TimeGrid::step() {
  ++k_;
  StampParams sp;
  sp.mode = AnalysisMode::kTransient;
  sp.time = time();
  sp.dt = dt_;
  sp.integrator = k_ == 1 ? Integrator::kBackwardEuler : Integrator::kTrapezoidal;
  RFMIX_OBS_COUNT("spice.tran.steps_attempted");
  NewtonResult nr = solve_newton(ckt_, x_, sp, newton_, &session_);
  if (!nr.converged) {
    RFMIX_OBS_COUNT("spice.tran.steps_rejected");
    RFMIX_OBS_COUNT("spice.tran.steps_attempted");
    NewtonOptions retry = newton_;
    retry.max_step_v = std::min(0.05, newton_.max_step_v);
    retry.max_iterations = newton_.max_iterations * 2;
    nr = solve_newton(ckt_, x_, sp, retry, &session_);
    if (!nr.converged) {
      RFMIX_OBS_COUNT("spice.tran.steps_rejected");
      throw ConvergenceError("transient: Newton failed at t=" + std::to_string(sp.time));
    }
  }
  RFMIX_OBS_COUNT("spice.tran.steps_accepted");
  x_ = std::move(nr.solution);
  for (const auto& dev : ckt_.devices()) dev->tran_accept(x_, sp);
  return x_;
}

TranResult transient(Circuit& ckt, double t_stop, double dt, const std::vector<Probe>& probes,
                     const TranOptions& opts) {
  if (!(dt > 0.0) || !(t_stop > 0.0))
    throw std::invalid_argument("transient: t_stop and dt must be positive");

  RFMIX_OBS_SCOPED_TIMER("spice.tran");
  RFMIX_OBS_TRACE_SCOPE("spice.tran");
  RFMIX_OBS_COUNT("spice.tran.calls");

  TimeGrid grid(ckt, dt, opts);
  TranResult result;
  result.waveforms.resize(probes.size());
  auto record = [&] {
    result.time_s.push_back(grid.time());
    for (std::size_t i = 0; i < probes.size(); ++i)
      result.waveforms[i].push_back(grid.state().vd(probes[i].p, probes[i].m));
  };
  record();
  const long steps = static_cast<long>(std::llround(t_stop / dt));
  for (long k = 1; k <= steps; ++k) {
    grid.step();
    record();
  }
  result.final_state = grid.state();
  return result;
}

}  // namespace rfmix::spice
