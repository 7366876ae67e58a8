// Sparse matrix support: triplet (COO) builder, compressed sparse column
// storage, and a left-looking sparse LU with partial pivoting, split into an
// analyze-once phase (pivot order + symbolic update structure) and a cheap
// refactor-per-step phase for Newton loops and sweep engines.
//
// The LPTV conversion-matrix engine produces block systems of dimension
// (2K+1)*N for K harmonics and N circuit unknowns; with K=15 and a 40-node
// mixer that is ~1200 unknowns with strong block sparsity, where dense LU
// becomes noticeably slower than a sparse factorization.
//
// Bit-exactness contract (docs/solver.md): a successful refactor_from()
// produces factors that are byte-identical to what the analyzing
// constructor would compute on the same matrix. The refactor replays the
// symbolic's structural plan while no exact zero changes the structure, then
// the analysis's own elimination, and verifies per column that partial
// pivoting would choose the pinned pivot; a disagreement (pivot drift,
// pattern mismatch, singular pivot) aborts the refactor so the caller can
// fall back to a full re-analysis — or, in the opt-in drift-repair mode,
// switches to a fresh analysis mid-factorization, reusing the columns
// already eliminated instead of restarting.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mathx/matrix.hpp"

namespace rfmix::mathx {

/// Triplet accumulator. Duplicate (row, col) entries sum, matching the
/// "stamping" idiom used by MNA assembly.
template <typename T>
class TripletMatrix {
 public:
  /// One stamp. Row, column and value sit together, so a stamp appends one
  /// record and a restamp reads and writes one.
  struct Entry {
    std::size_t row;
    std::size_t col;
    T value;
  };

  TripletMatrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t entry_count() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Exact-zero values are kept as structural entries: a slot stamped T{}
  /// (e.g. a device whose conductance is zero at this Newton iterate) stays
  /// in the sparsity pattern, so the pattern cannot change between
  /// factorizations when the value later becomes nonzero.
  ///
  /// After restamp(), an add() that repeats the recorded (row, col) at its
  /// position only overwrites that value. The first one that does not
  /// truncates the sequence there and records from then on, as after clear().
  // Flattened: GCC 12 at -O3 stopped inlining push_back into the copy of
  // add() that sparse.cpp instantiates once the LU code there grew, and
  // every recorded stamp paid an out-of-line call (ROADMAP item 2).
  [[gnu::flatten]] void add(std::size_t r, std::size_t c, T v) {
    if (restamping_) {
      if (cursor_ < entries_.size()) {
        Entry& e = entries_[cursor_];
        if (e.row == r && e.col == c) {
          e.value = v;
          ++cursor_;
          return;
        }
      }
      // The restamp broke the recorded sequence here.
      if (cursor_ != entries_.size()) truncate(cursor_);
      restamping_ = false;
      reshaped_ = true;
    }
    if (r >= rows_ || c >= cols_) throw std::out_of_range("TripletMatrix::add out of range");
    entries_.push_back({r, c, v});
  }

  /// Drop all entries but keep the allocated capacity.
  void clear() {
    entries_.clear();
    restamping_ = false;
    reshaped_ = true;
  }

  /// Start restamping the recorded entry sequence in place: a Newton loop
  /// that stamps the same (row, col) sequence every iteration then writes
  /// only values, with no bounds check and no push. End with
  /// finish_restamp().
  void restamp() {
    restamping_ = true;
    cursor_ = 0;
  }

  /// End a restamp: drop the entries that were not re-added, and report
  /// whether the (row, col) sequence is exactly the one of the previous
  /// finish_restamp() (so a TripletCscMap built for that one still applies).
  /// A restamp cut short by an exception counts as a change at the next call.
  bool finish_restamp() {
    if (restamping_ && cursor_ != entries_.size()) {
      truncate(cursor_);
      reshaped_ = true;
    }
    const bool same = !reshaped_;
    reshaped_ = false;
    // Stay restamping at the end, so a later add() counts as a change.
    restamping_ = true;
    cursor_ = entries_.size();
    return same;
  }

  Matrix<T> to_dense() const {
    Matrix<T> m(rows_, cols_);
    for (const Entry& e : entries_) m(e.row, e.col) += e.value;
    return m;
  }

 private:
  void truncate(std::size_t count);

  std::size_t rows_;
  std::size_t cols_;
  std::vector<Entry> entries_;
  // Between restamp() and the first add() that breaks the recorded
  // sequence, add() overwrites the value at cursor_; otherwise it appends.
  bool restamping_ = false;
  std::size_t cursor_ = 0;
  bool reshaped_ = true;  // the sequence changed since the last finish_restamp()
};

/// Compressed sparse column matrix (pattern immutable once built; values may
/// be refilled in place through mutable_values for the refactor fast path).
template <typename T>
class CscMatrix {
 public:
  CscMatrix() = default;

  /// Rows sorted within each column, one entry per distinct (row, col):
  /// duplicate stamps merge into their sum.
  explicit CscMatrix(const TripletMatrix<T>& t);

  /// Adopt a prebuilt pattern + value array (the StampMap fast path). The
  /// caller guarantees row indices are sorted and unique within each column.
  CscMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> col_ptr,
            std::vector<std::size_t> row_idx, std::vector<T> values)
      : rows_(rows), cols_(cols), col_ptr_(std::move(col_ptr)),
        row_idx_(std::move(row_idx)), values_(std::move(values)) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& col_ptr() const { return col_ptr_; }
  const std::vector<std::size_t>& row_idx() const { return row_idx_; }
  const std::vector<T>& values() const { return values_; }

  /// In-place value refill for pattern-preserving updates.
  std::vector<T>& mutable_values() { return values_; }

  std::vector<T> multiply(const std::vector<T>& x) const;

  Matrix<T> to_dense() const {
    Matrix<T> m(rows_, cols_);
    for (std::size_t j = 0; j < cols_; ++j)
      for (std::size_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p)
        m(row_idx_[p], j) = values_[p];
    return m;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> col_ptr_;  // size cols+1
  std::vector<std::size_t> row_idx_;  // size nnz, sorted within column
  std::vector<T> values_;             // size nnz
};

/// Caches the triplet -> CSC conversion for a fixed stamp pattern. MNA
/// assembly restamps the same (row, col) sequence every Newton iteration
/// with new values; once the mapping from triplet arrival order to CSC slot
/// is recorded, each subsequent conversion is a single gather-add pass with
/// no counting, sorting or allocation.
///
/// fill() replays the exact assign/accumulate order of the
/// CscMatrix(TripletMatrix) constructor (including its duplicate-merge
/// summation order), so the produced values are byte-identical to a fresh
/// conversion of the same triplets — a prerequisite for the solver's
/// bit-exactness contract.
template <typename T>
class TripletCscMap {
 public:
  TripletCscMap() = default;

  bool empty() const { return cols_ == 0 && rows_ == 0; }

  /// True if `t` has exactly the recorded (row, col) entry sequence.
  bool matches(const TripletMatrix<T>& t) const;

  /// Record the mapping for this triplet's entry sequence.
  void build(const TripletMatrix<T>& t);

  /// Convert `t` (which must match()) into `csc`, reusing csc's pattern
  /// storage when it already carries this map's pattern.
  void fill(const TripletMatrix<T>& t, CscMatrix<T>& csc) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> trip_rows_, trip_cols_;  // recorded entry sequence
  // One record per triplet entry, in the order the conversion walk visits
  // them: source arrival index, and whether it opens the next CSC slot
  // (first hit) or accumulates into the slot it last opened (duplicate).
  std::vector<std::size_t> walk_src_;
  std::vector<char> walk_first_;
  std::vector<std::size_t> col_ptr_, row_idx_;  // resulting CSC pattern
};

template <typename T>
class SparseLu;

/// Output of the analyze phase: the pinned pivot sequence plus the
/// structural elimination pattern (which earlier columns can update each
/// column, and which rows each column's L holds, closed over structure
/// alone, not the values seen at analysis time). Immutable once built, so
/// sweep engines can share one symbolic across threads while each point
/// refactors privately.
template <typename T>
class SparseLuSymbolic {
 public:
  SparseLuSymbolic() = default;

  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }

  /// Structural factor sizes, used to size the numeric buffers.
  std::size_t l_capacity() const { return l_row_.size(); }
  std::size_t u_capacity() const { return upd_step_.size() + n_; }

  /// True if `a` has exactly the pattern this symbolic was analyzed on.
  bool pattern_matches(const CscMatrix<T>& a) const {
    return a.rows() == n_ && a.cols() == n_ && a.col_ptr() == pat_col_ptr_ &&
           a.row_idx() == pat_row_idx_;
  }

 private:
  friend class SparseLu<T>;
  std::size_t n_ = 0;
  std::vector<std::size_t> perm_;      // elimination step -> pinned pivot row
  std::vector<std::size_t> perm_inv_;  // original row -> elimination step
  // The structural plan that refactor_from() replays (CSR-style per
  // column). Updates: the steps k < j whose L column can structurally reach
  // column j, in ascending k, which is exactly the structural nonzero set of
  // U(k, j). L rows: the rows column j's L can hold, in the order a
  // full-structure elimination first touches them, and the pinned pivot's
  // rank among those candidates (its position in the pivot scan).
  std::vector<std::size_t> upd_ptr_;     // size n+1
  std::vector<std::uint32_t> upd_step_;  // flattened update lists
  std::vector<std::size_t> l_ptr_;       // size n+1
  std::vector<std::uint32_t> l_row_;     // flattened L rows
  std::vector<std::uint32_t> piv_rank_;  // size n
  // Pattern fingerprint of the analyzed matrix.
  std::vector<std::size_t> pat_col_ptr_;
  std::vector<std::size_t> pat_row_idx_;
};

/// Left-looking (Gilbert–Peierls) sparse LU with partial pivoting.
///
/// Two ways to build the numeric factors:
///  * the constructors run the full analyze path (pattern discovery +
///    value-based partial pivoting); the three-argument form additionally
///    exports the symbolic structure for later reuse;
///  * refactor_from() replays a previously analyzed symbolic's structural
///    plan into this object's buffers, hands over to the analysis's own
///    elimination where an exact zero breaks that structure, and reports
///    failure instead of producing factors that deviate from the analyze
///    path.
template <typename T>
class SparseLu {
 public:
  /// Empty factorization; only useful as a refactor_from target.
  SparseLu() = default;

  explicit SparseLu(const CscMatrix<T>& a, double pivot_tol = 0.0);

  /// Analyze and export the symbolic structure into `sym_out`.
  SparseLu(const CscMatrix<T>& a, SparseLuSymbolic<T>& sym_out, double pivot_tol = 0.0);

  /// Numeric refactorization of `a` against a pinned symbolic. On success
  /// the factors are byte-identical to SparseLu(a, pivot_tol). Returns false
  /// (leaving *this empty) when the pattern does not match the symbolic,
  /// when partial pivoting on the current values would choose a different
  /// pivot than the pinned one (pivot drift), or when a pivot is singular —
  /// the caller then falls back to a fresh analyzing construction.
  /// Buffers are reused across calls, so a Newton loop allocates only on
  /// the first iteration.
  ///
  /// With `repair` non-null, pivot drift no longer aborts: up to the drift
  /// column the replayed elimination state is identical to a fresh analysis
  /// (the structural plan and the analyze-mode reach apply exactly the
  /// updates the analysis would, and the pivot scan visits the candidates
  /// in the analysis's order), so the factorization
  /// adopts the freshly scanned pivot, continues in analyze mode, and
  /// rewrites *repair with the new pivot sequence — producing factors
  /// byte-identical to SparseLu(a, pivot_tol) without restarting from
  /// column zero. `repair` may alias `sym` (it is only written after the
  /// last read, on complete success); it must NOT be a symbolic shared
  /// with concurrent readers. A singular pivot at the drift column throws
  /// SingularMatrixError, matching the analyzing constructors. `repaired`,
  /// when non-null, reports whether the repair path ran.
  bool refactor_from(const SparseLuSymbolic<T>& sym, const CscMatrix<T>& a,
                     double pivot_tol = 0.0, SparseLuSymbolic<T>* repair = nullptr,
                     bool* repaired = nullptr);

  std::size_t size() const { return n_; }

  std::vector<T> solve(const std::vector<T>& b) const;

  /// solve() into `x` (resized to size()), allocating nothing once `x` has
  /// the capacity. `x` must not be `b`.
  void solve(const std::vector<T>& b, std::vector<T>& x) const;

  /// Solve A^T x = b (adjoint / noise analyses).
  std::vector<T> solve_transposed(const std::vector<T>& b) const;

 private:
  // Shared elimination core: factor `a`, choosing pivots by partial
  // pivoting. When `sym` is non-null, replay its structural plan as far as
  // it holds, then continue with the analyze-mode reach, verifying each
  // chosen pivot against the pinned sequence; on drift, returns false —
  // unless `sym_out` is also non-null, in which case the elimination stops
  // verifying at the drift column and continues (drift repair). When
  // `sym_out` is non-null, record the symbolic structure of this
  // factorization (in replay mode, only if a drift actually occurred).
  // `drifted`, when non-null, reports whether the repair path ran.
  bool factorize(const CscMatrix<T>& a, double pivot_tol, const SparseLuSymbolic<T>* sym,
                 SparseLuSymbolic<T>* sym_out, bool* drifted = nullptr);

  // Replay `sym`'s structural plan from column 0; returns the first column
  // it cannot replay exactly (n when it replayed them all).
  std::size_t replay_plan(const CscMatrix<T>& a, const SparseLuSymbolic<T>& sym,
                          double pivot_tol);

  std::size_t n_ = 0;
  // L is unit-diagonal; stored without the diagonal. U includes diagonal.
  std::vector<std::size_t> l_col_ptr_, l_row_idx_;
  std::vector<T> l_values_;
  std::vector<std::size_t> u_col_ptr_, u_row_idx_;
  std::vector<T> u_values_;
  std::vector<std::size_t> perm_;      // row permutation: pivot row of each step
  std::vector<std::size_t> perm_inv_;  // original row -> pivoted position
  // Scratch reused across factorizations.
  std::vector<T> work_;
  std::vector<char> occupied_;
  std::vector<std::size_t> pattern_;
  std::vector<char> pivoted_;
  std::vector<std::uint64_t> pending_;  // bitset of elimination steps to apply
  std::vector<std::pair<std::size_t, T>> ucol_;  // (elim step, value) of one U column
};

extern template class TripletMatrix<double>;
extern template class TripletMatrix<std::complex<double>>;
extern template class CscMatrix<double>;
extern template class CscMatrix<std::complex<double>>;
extern template class TripletCscMap<double>;
extern template class TripletCscMap<std::complex<double>>;
extern template class SparseLuSymbolic<double>;
extern template class SparseLuSymbolic<std::complex<double>>;
extern template class SparseLu<double>;
extern template class SparseLu<std::complex<double>>;

}  // namespace rfmix::mathx
