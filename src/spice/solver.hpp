// Per-engine solver state for the analyze-once/refactor-per-step fast path
// (see docs/solver.md).
//
// A SolverSession owns everything a Newton/sweep loop reuses between
// factorizations: the cached triplet->CSC stamp mapping, the symbolic LU
// structure with its pinned pivot order, and the numeric factor's buffers.
// Engines create one session per independent work unit (a transient run, a
// PSS run, one DC-sweep chunk) so obs counter totals are identical at any
// thread count.
//
// Every factor is byte-identical to a fresh SparseLu(CscMatrix(g)):
// refactor_from() replays the analyze arithmetic and falls back to a full
// analysis whenever the stamp pattern changes or the pinned pivot sequence
// stops winning the pivot scan.
#pragma once

#include <cstddef>

#include "mathx/sparse.hpp"
#include "mathx/sweep_lu.hpp"

namespace rfmix::spice {

class Circuit;

/// SweepLu's counter hook for the spice sweeps (AC, noise): spice.lu.*.
void count_sweep_lu(mathx::SweepStep step);

class SolverSession {
 public:
  SolverSession() = default;
  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  /// Factor the assembled real system. Counts spice.lu.factorizations plus
  /// spice.lu.analyze / spice.lu.refactor / spice.lu.fallback /
  /// spice.lu.pattern_rebuild; throws mathx::SingularMatrixError exactly
  /// like a cold factorization.
  const mathx::SparseLu<double>& factor(const mathx::TripletMatrix<double>& g);

  /// MOSFETs in `ckt`, counted on first use per circuit. Each one evaluates
  /// its model once per stamp, so solve_newton credits spice.dev.evaluated
  /// with this many per iteration instead of counting per device.
  std::size_t mosfet_count(const Circuit& ckt);

 private:
  mathx::TripletCscMap<double> map_;
  mathx::CscMatrix<double> csc_;
  mathx::SparseLuSymbolic<double> sym_;
  mathx::SparseLu<double> lu_;
  bool have_map_ = false;
  bool have_sym_ = false;
  const Circuit* counted_ckt_ = nullptr;
  std::size_t mosfets_ = 0;
};

}  // namespace rfmix::spice
