// Per-engine solver state for the analyze-once/refactor-per-step fast path
// (see docs/solver.md).
//
// A SolverSession owns everything a Newton/sweep loop reuses between
// iterations: the MNA triplets and right-hand side it restamps in place,
// the cached triplet->CSC stamp mapping, the symbolic LU structure with its
// pinned pivot order, the numeric factor's buffers, and the Newton loop's
// solution and next-iterate vectors. Once warm, an iteration allocates
// nothing. Engines create one session per independent work unit (a
// transient run, a PSS run, one DC-sweep chunk) so obs counter totals are
// identical at any thread count.
//
// Every factor is byte-identical to a fresh SparseLu(CscMatrix(g)):
// refactor_from() replays the symbolic's structural plan exactly or
// refuses, and the session then analyzes in place into its own symbolic.
// It refuses when the stamp pattern changes, when an exact zero changes the
// structure the analysis keeps, and when the pinned pivot sequence stops
// winning the pivot scan.
#pragma once

#include <cstddef>

#include "mathx/sparse.hpp"

namespace rfmix::spice {

class Circuit;

class SolverSession {
 public:
  SolverSession() = default;
  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  /// Start the next system of an n-unknown circuit: zero rhs() and restamp
  /// the session's triplets in place (TripletMatrix::restamp). Stamp into
  /// the returned triplets and rhs(), then call factor().
  mathx::TripletMatrix<double>& restamp(std::size_t n);
  mathx::VectorD& rhs() { return rhs_; }

  /// Factor the restamped system. Counts spice.lu.factorizations plus
  /// spice.lu.analyze / spice.lu.refactor / spice.lu.fallback /
  /// spice.lu.pattern_rebuild (the stamp sequence changed since the last
  /// factor()); throws mathx::SingularMatrixError exactly like a cold
  /// factorization.
  const mathx::SparseLu<double>& factor();

  /// Newton scratch, sized by the loop and kept across calls: the linear
  /// solve's output and the next iterate (swapped with the iterate).
  mathx::VectorD& solve_buffer() { return x_solve_; }
  mathx::VectorD& next_iterate() { return x_next_; }

  /// MOSFETs in `ckt`, counted on first use per circuit. Each one evaluates
  /// its model once per stamp, so solve_newton credits spice.dev.evaluated
  /// with this many per iteration instead of counting per device.
  std::size_t mosfet_count(const Circuit& ckt);

 private:
  mathx::TripletMatrix<double> g_{0, 0};
  mathx::VectorD rhs_, x_solve_, x_next_;
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
