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
// In classic mode the session still factors — it just re-analyzes every
// time, reproducing the cold path exactly.
// Both modes produce byte-identical factors: refactor_from() replays the
// analyze arithmetic and falls back to a full analysis whenever the stamp
// pattern changes or the pinned pivot sequence stops winning the pivot
// scan.
#pragma once

#include <cstddef>

#include "mathx/solver_config.hpp"
#include "mathx/sparse.hpp"

namespace rfmix::spice {

class Circuit;

using mathx::ScopedSolverMode;
using mathx::set_solver_mode;
using mathx::solver_mode;
using mathx::SolverMode;

class SolverSession {
 public:
  SolverSession();
  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  /// Mode latched at construction, so one work unit never mixes paths.
  SolverMode mode() const { return mode_; }

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
  SolverMode mode_;
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
