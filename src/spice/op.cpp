#include "spice/op.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "mathx/lu.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "spice/mna.hpp"
#include "spice/solver.hpp"

namespace rfmix::spice {

namespace {

// Newton convergence: every unknown moved by at most abstol + reltol * |x|.
constexpr double kRelTol = 1e-4;
constexpr double kAbsTolV = 1e-7;   // node voltages [V]
constexpr double kAbsTolI = 1e-10;  // branch currents [A]

bool step_converged(const MnaLayout& layout, const mathx::VectorD& x_old,
                    const mathx::VectorD& x_new) {
  const int nv = layout.num_nodes - 1;
  for (int i = 0; i < layout.size(); ++i) {
    const double dx = std::abs(x_new[static_cast<std::size_t>(i)] -
                               x_old[static_cast<std::size_t>(i)]);
    const double mag = std::max(std::abs(x_new[static_cast<std::size_t>(i)]),
                                std::abs(x_old[static_cast<std::size_t>(i)]));
    const double abstol = i < nv ? kAbsTolV : kAbsTolI;
    if (dx > abstol + kRelTol * mag) return false;
  }
  return true;
}

}  // namespace

NewtonResult solve_newton(const Circuit& ckt, const Solution& initial,
                          const StampParams& params, const NewtonOptions& opts,
                          SolverSession* session) {
  const MnaLayout layout = ckt.layout();
  const std::size_t n = static_cast<std::size_t>(layout.size());

  std::unique_ptr<SolverSession> local;
  if (session == nullptr) {
    local = std::make_unique<SolverSession>();
    session = local.get();
  }
  NewtonResult result;
  result.solution = initial;

  RFMIX_OBS_COUNT("spice.newton.solves");

  mathx::TripletMatrix<double> g(n, n);
  mathx::VectorD b;
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    RFMIX_OBS_COUNT("spice.newton.iterations");
    RFMIX_OBS_COUNT_N("spice.dev.evaluated", session->mosfet_count(ckt));
    g.clear();
    b.assign(n, 0.0);
    assemble_real(ckt, result.solution, params, opts.gmin, g, b);

    mathx::VectorD x_new;
    try {
      x_new = session->factor(g).solve(b);
    } catch (const mathx::SingularMatrixError&) {
      // Singular Jacobian mid-iteration: bail out; the caller's homotopy
      // (larger gmin) usually repairs this.
      RFMIX_OBS_COUNT("spice.newton.singular");
      result.converged = false;
      result.iterations = iter + 1;
      return result;
    }

    // Damping: clamp the largest voltage move to max_step_v. This is the
    // global-convergence guard for the exponential EKV/diode models.
    const mathx::VectorD& x_old = result.solution.raw();
    double max_dv = 0.0;
    const int nv = layout.num_nodes - 1;
    for (int i = 0; i < nv; ++i)
      max_dv = std::max(max_dv, std::abs(x_new[static_cast<std::size_t>(i)] -
                                         x_old[static_cast<std::size_t>(i)]));
    double alpha = 1.0;
    if (max_dv > opts.max_step_v) alpha = opts.max_step_v / max_dv;

    mathx::VectorD x_next(n);
    for (std::size_t i = 0; i < n; ++i)
      x_next[i] = x_old[i] + alpha * (x_new[i] - x_old[i]);

    const bool full_step = alpha == 1.0;
    const bool converged = full_step && step_converged(layout, x_old, x_new);
    result.solution = Solution(layout, std::move(x_next));
    result.iterations = iter + 1;
    if (converged) {
      result.converged = true;
      return result;
    }
  }
  RFMIX_OBS_COUNT("spice.newton.nonconverged");
  result.converged = false;
  return result;
}

Solution dc_operating_point(Circuit& ckt, const NewtonOptions& opts, SolverSession* session) {
  RFMIX_OBS_SCOPED_TIMER("spice.op");
  RFMIX_OBS_TRACE_SCOPE("spice.op");
  RFMIX_OBS_COUNT("spice.op.calls");
  const MnaLayout layout = ckt.finalize();
  std::unique_ptr<SolverSession> local;
  if (session == nullptr) {
    local = std::make_unique<SolverSession>();
    session = local.get();
  }
  StampParams params;
  params.mode = AnalysisMode::kDc;

  // Plain Newton from zero.
  NewtonResult r = solve_newton(ckt, Solution::zeros(layout), params, opts, session);
  if (r.converged) return r.solution;

  // gmin stepping: start heavily damped, relax gmin geometrically, warm-
  // starting each stage from the previous solution.
  {
    NewtonOptions n = opts;
    Solution x = Solution::zeros(layout);
    bool ok = true;
    for (double gmin = 1e-2; gmin >= opts.gmin; gmin /= 10.0) {
      RFMIX_OBS_COUNT("spice.op.gmin_steps");
      n.gmin = gmin;
      NewtonResult stage = solve_newton(ckt, x, params, n, session);
      if (!stage.converged) {
        ok = false;
        break;
      }
      x = stage.solution;
    }
    if (ok) {
      n.gmin = opts.gmin;
      NewtonResult final = solve_newton(ckt, x, params, n, session);
      if (final.converged) return final.solution;
    }
  }

  // Source stepping: ramp all independent sources from 0 to full value.
  {
    Solution x = Solution::zeros(layout);
    bool ok = true;
    for (double scale : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      RFMIX_OBS_COUNT("spice.op.source_steps");
      StampParams sp = params;
      sp.source_scale = scale;
      NewtonResult stage = solve_newton(ckt, x, sp, opts, session);
      if (!stage.converged) {
        ok = false;
        break;
      }
      x = stage.solution;
    }
    if (ok) return x;
  }

  throw ConvergenceError("dc_operating_point: no convergence (plain, gmin, source stepping)");
}

double total_dissipated_power(const Circuit& ckt, const Solution& op) {
  double p = 0.0;
  for (const auto& dev : ckt.devices()) p += dev->dissipated_power(op);
  return p;
}

}  // namespace rfmix::spice
