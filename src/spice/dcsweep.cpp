#include "spice/dcsweep.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "spice/solver.hpp"

namespace rfmix::spice {

namespace {

/// Solve sweep points [i0, i1) on `ckt`, warm-starting within the range
/// from a cold first point, writing each result into its fixed slot. This
/// is the unit of work both overloads share: identical inputs produce
/// identical solutions whether ranges run in sequence or concurrently.
void sweep_range(Circuit& ckt, VoltageSource& source, double start, double stop,
                 int points, const NewtonOptions& opts, int i0, int i1,
                 DcSweepResult& result) {
  const MnaLayout layout = ckt.finalize();
  StampParams params;
  params.mode = AnalysisMode::kDc;

  // One session per chunk: chunk boundaries are fixed by kDcSweepChunk, so
  // the analyze/refactor counter totals are identical at any thread count.
  SolverSession session;

  Solution guess = Solution::zeros(layout);
  for (int i = i0; i < i1; ++i) {
    RFMIX_OBS_COUNT("spice.dcsweep.points");
    const double v = start + (stop - start) * i / (points - 1);
    source.set_waveform(Waveform::dc(v));
    NewtonResult nr = solve_newton(ckt, guess, params, opts, &session);
    if (!nr.converged) {
      // Cold restart through the full homotopy machinery.
      try {
        nr.solution = dc_operating_point(ckt, opts, &session);
      } catch (const ConvergenceError&) {
        throw ConvergenceError("dc_sweep: no convergence at value " + std::to_string(v));
      }
    }
    guess = nr.solution;
    result.values[static_cast<std::size_t>(i)] = v;
    result.solutions[static_cast<std::size_t>(i)] = std::move(nr.solution);
  }
}

DcSweepResult make_result(int points) {
  if (points < 2) throw std::invalid_argument("dc_sweep: need at least 2 points");
  DcSweepResult result;
  result.values.resize(static_cast<std::size_t>(points));
  result.solutions.resize(static_cast<std::size_t>(points));
  return result;
}

}  // namespace

DcSweepResult dc_sweep(Circuit& ckt, VoltageSource& source, double start, double stop,
                       int points, const NewtonOptions& opts) {
  RFMIX_OBS_SCOPED_TIMER("spice.dcsweep");
  RFMIX_OBS_TRACE_SCOPE("spice.dcsweep");
  DcSweepResult result = make_result(points);
  const Waveform saved = source.waveform();
  try {
    for (int i0 = 0; i0 < points; i0 += kDcSweepChunk)
      sweep_range(ckt, source, start, stop, points, opts, i0,
                  std::min(points, i0 + kDcSweepChunk), result);
  } catch (...) {
    source.set_waveform(saved);
    throw;
  }
  source.set_waveform(saved);
  return result;
}

DcSweepResult dc_sweep(const DcSweepFactory& make, double start, double stop,
                       int points, const NewtonOptions& opts) {
  RFMIX_OBS_SCOPED_TIMER("spice.dcsweep");
  RFMIX_OBS_TRACE_SCOPE("spice.dcsweep");
  DcSweepResult result = make_result(points);
  const int chunks = (points + kDcSweepChunk - 1) / kDcSweepChunk;
  runtime::parallel_for(0, static_cast<std::size_t>(chunks), [&](std::size_t c) {
    DcSweepInstance inst = make();
    if (!inst.circuit || inst.source == nullptr)
      throw std::invalid_argument("dc_sweep: factory must supply a circuit and its source");
    const int i0 = static_cast<int>(c) * kDcSweepChunk;
    sweep_range(*inst.circuit, *inst.source, start, stop, points, opts, i0,
                std::min(points, i0 + kDcSweepChunk), result);
  });
  return result;
}

}  // namespace rfmix::spice
