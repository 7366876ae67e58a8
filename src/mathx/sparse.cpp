#include "mathx/sparse.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "mathx/lu.hpp"

namespace rfmix::mathx {

namespace {

constexpr std::size_t kNoStep = static_cast<std::size_t>(-1);

// The elimination steps still to apply to one column, as a bitset over step
// numbers that is consumed lowest-first. Callers only add steps above the
// last one popped, so the cursor never has to move back; it scans just the
// words between the lowest and the highest pending step. pop() leaves the
// bitset all-zero when it reports kNoStep, ready for the next column. The
// vector must not be resized while a PendingSteps points into it.
class PendingSteps {
 public:
  explicit PendingSteps(std::vector<std::uint64_t>& bits) : bits_(bits.data()) {}

  void add(std::size_t k) {
    const std::size_t w = k / 64;
    bits_[w] |= std::uint64_t{1} << (k % 64);
    lo_ = std::min(lo_, w);
    hi_ = std::max(hi_, w);
  }

  std::size_t pop() {
    for (; lo_ <= hi_; ++lo_) {
      std::uint64_t& word = bits_[lo_];
      if (word != 0) {
        const std::size_t k = lo_ * 64 + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        return k;
      }
    }
    lo_ = kNoStep;
    hi_ = 0;
    return kNoStep;
  }

 private:
  std::uint64_t* bits_;
  std::size_t lo_ = kNoStep, hi_ = 0;  // word range that may hold set bits
};

// The one triplet -> CSC conversion: count entries per column, scatter
// their arrival indices column by column, sort each column by row, and
// merge every entry whose row its column already holds. Writes the pattern
// into col_ptr/row_idx and calls visit(k, first) for each triplet entry k
// in the order its value lands: first == true opens the CSC slot
// row_idx.size() - 1, false accumulates into it. Duplicates of one (row, col)
// arrive in the order std::sort leaves them; the constructor and
// TripletCscMap::build share this walk, so their sums match to the bit.
template <typename T, typename Visit>
void triplet_to_csc(const TripletMatrix<T>& t, std::vector<std::size_t>& col_ptr,
                    std::vector<std::size_t>& row_idx, Visit visit) {
  const auto& tr = t.row_indices();
  const auto& tc = t.col_indices();
  const std::size_t m = tr.size();
  std::vector<std::size_t> start(t.cols() + 1, 0);
  for (std::size_t k = 0; k < m; ++k) ++start[tc[k] + 1];
  for (std::size_t j = 0; j < t.cols(); ++j) start[j + 1] += start[j];
  std::vector<std::size_t> next(start.begin(), start.end() - 1);
  std::vector<std::size_t> arrival(m);
  for (std::size_t k = 0; k < m; ++k) arrival[next[tc[k]]++] = k;

  col_ptr.assign(t.cols() + 1, 0);
  row_idx.clear();
  row_idx.reserve(m);
  for (std::size_t j = 0; j < t.cols(); ++j) {
    const auto lo = arrival.begin() + static_cast<std::ptrdiff_t>(start[j]);
    const auto hi = arrival.begin() + static_cast<std::ptrdiff_t>(start[j + 1]);
    std::sort(lo, hi, [&](std::size_t a, std::size_t b) { return tr[a] < tr[b]; });
    for (auto it = lo; it != hi; ++it) {
      const bool first = row_idx.size() == col_ptr[j] || row_idx.back() != tr[*it];
      if (first) row_idx.push_back(tr[*it]);
      visit(*it, first);
    }
    col_ptr[j + 1] = row_idx.size();
  }
}

}  // namespace

template <typename T>
CscMatrix<T>::CscMatrix(const TripletMatrix<T>& t) : rows_(t.rows()), cols_(t.cols()) {
  const auto& tv = t.values();
  values_.reserve(tv.size());
  triplet_to_csc(t, col_ptr_, row_idx_, [&](std::size_t k, bool first) {
    if (first)
      values_.push_back(tv[k]);
    else
      values_.back() += tv[k];
  });
}

template <typename T>
std::vector<T> CscMatrix<T>::multiply(const std::vector<T>& x) const {
  if (x.size() != cols_) throw std::invalid_argument("CscMatrix::multiply size mismatch");
  std::vector<T> y(rows_, T{});
  for (std::size_t j = 0; j < cols_; ++j) {
    const T xj = x[j];
    if (xj == T{}) continue;
    for (std::size_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p)
      y[row_idx_[p]] += values_[p] * xj;
  }
  return y;
}

template <typename T>
void TripletCscMap<T>::build(const TripletMatrix<T>& t) {
  rows_ = t.rows();
  cols_ = t.cols();
  trip_rows_ = t.row_indices();
  trip_cols_ = t.col_indices();
  walk_src_.clear();
  walk_first_.clear();
  walk_src_.reserve(trip_rows_.size());
  walk_first_.reserve(trip_rows_.size());
  triplet_to_csc(t, col_ptr_, row_idx_, [&](std::size_t k, bool first) {
    walk_src_.push_back(k);
    walk_first_.push_back(first ? 1 : 0);
  });
}

template <typename T>
void TripletCscMap<T>::fill(const TripletMatrix<T>& t, CscMatrix<T>& csc) const {
  const auto& tv = t.values();
  if (tv.size() != walk_src_.size())
    throw std::invalid_argument("TripletCscMap::fill: triplet does not match map");
  if (csc.rows() != rows_ || csc.cols() != cols_ || csc.col_ptr() != col_ptr_ ||
      csc.row_idx() != row_idx_) {
    csc = CscMatrix<T>(rows_, cols_, col_ptr_, row_idx_,
                       std::vector<T>(row_idx_.size(), T{}));
  }
  std::vector<T>& v = csc.mutable_values();
  // Assign-then-accumulate matches the constructor's push_back/+= merge
  // exactly (an initial `T{} + x` would flip the sign of a -0.0 stamp).
  std::size_t end = 0;  // one past the slot the walk last opened
  for (std::size_t w = 0; w < walk_src_.size(); ++w) {
    if (walk_first_[w])
      v[end++] = tv[walk_src_[w]];
    else
      v[end - 1] += tv[walk_src_[w]];
  }
}

template <typename T>
SparseLu<T>::SparseLu(const CscMatrix<T>& a, double pivot_tol) {
  factorize(a, pivot_tol, nullptr, nullptr);
}

template <typename T>
SparseLu<T>::SparseLu(const CscMatrix<T>& a, SparseLuSymbolic<T>& sym_out, double pivot_tol) {
  factorize(a, pivot_tol, nullptr, &sym_out);
}

template <typename T>
bool SparseLu<T>::refactor_from(const SparseLuSymbolic<T>& sym, const CscMatrix<T>& a,
                                double pivot_tol, SparseLuSymbolic<T>* repair,
                                bool* repaired) {
  if (repaired) *repaired = false;
  if (!sym.pattern_matches(a)) {
    n_ = 0;
    return false;
  }
  // Size the factor buffers from the symbolic before the replay. Not inside
  // factorize(): inlined there, reserve() made GCC 12 at -O3 compile the
  // complex replay loop about 2.5x slower (N-path block systems).
  l_row_idx_.reserve(sym.l_capacity_);
  l_values_.reserve(sym.l_capacity_);
  u_row_idx_.reserve(sym.u_capacity_);
  u_values_.reserve(sym.u_capacity_);
  return factorize(a, pivot_tol, &sym, repair, repaired);
}

// Left-looking column LU with partial pivoting, using a dense work column in
// *original* row coordinates. L columns store original row indices so no
// renumbering pass is needed; the permutation maps elimination step -> chosen
// pivot row.
//
// Analyze mode (sym == nullptr): column j takes the update of every earlier
// step k whose pivot row perm_[k] is occupied, in ascending k, skipping those
// with U(k, j) exactly zero. Instead of scanning all k < j, an ordered reach
// finds them: a step becomes pending when its pivot row becomes occupied,
// and the lowest pending step is applied next. L column k only holds rows not
// yet pivoted at step k, so applying step k only makes later steps pending.
// Each step is therefore reached after all the updates that feed its pivot
// row and in ascending order, exactly as a scan over all k < j would reach
// it, so the factors, permutation and symbolic lists are byte-identical to
// that scan's (tests/mathx/test_lu_oracle.cpp pins them). A column costs its
// reach plus the bitset words that reach spans instead of O(j); on the
// fill-free 118,784-device rx_array that took the analysis from 6.4 s to
// ~25 ms (docs/solver.md). A depth-first reach needs a sort of the reached
// steps to restore this order, and it walks each reached L column twice; it
// was slower than the scan on matrices with fill.
//
// Replay mode (sym != nullptr): the updates come from the symbolic update
// lists. Those lists are a structural superset of the updates any value
// assignment can trigger (closure over structure alone, see below), so
// applying the same value-dependent skips to them visits exactly the updates
// the analyze-mode reach would, in the same ascending order; the scatter
// sequence — and therefore the discovered pattern order, the pivot scan, and
// every emitted byte of L and U — is identical to analyze mode as long as the
// pivot-selection scan picks the pinned pivot. The ascending update order is
// topologically valid because L column k only holds rows not yet pivoted at
// step k, so a later update can never touch an earlier pivot row.
template <typename T>
bool SparseLu<T>::factorize(const CscMatrix<T>& a, double pivot_tol,
                            const SparseLuSymbolic<T>* sym, SparseLuSymbolic<T>* sym_out,
                            bool* drifted) {
  if (a.rows() != a.cols()) throw std::invalid_argument("SparseLu requires square matrix");
  const bool replay = sym != nullptr;
  bool drift_repaired = false;
  const std::size_t n = a.rows();
  n_ = n;
  l_col_ptr_.assign(n + 1, 0);
  u_col_ptr_.assign(n + 1, 0);
  l_row_idx_.clear();
  l_values_.clear();
  u_row_idx_.clear();
  u_values_.clear();
  perm_.assign(n, static_cast<std::size_t>(-1));
  perm_inv_.assign(n, static_cast<std::size_t>(-1));

  work_.assign(n, T{});      // dense column, original row coords
  occupied_.assign(n, 0);    // nonzero-pattern flags for `work_`
  pattern_.clear();          // rows currently occupied
  pivoted_.assign(n, 0);     // original row already chosen as pivot?
  pending_.assign((n + 63) / 64, 0);  // one bit per elimination step
  PendingSteps pending(pending_);

  const auto& acp = a.col_ptr();
  const auto& ari = a.row_idx();
  const auto& av = a.values();

  auto scatter = [&](std::size_t row, T value) {
    if (!occupied_[row]) {
      occupied_[row] = 1;
      pattern_.push_back(row);
    }
    work_[row] += value;
  };

  auto apply_update = [&](std::size_t k) {
    const std::size_t piv_row_k = perm_[k];
    if (!occupied_[piv_row_k]) return;
    const T ukj = work_[piv_row_k];
    if (ukj == T{}) return;
    for (std::size_t p = l_col_ptr_[k]; p < l_col_ptr_[k + 1]; ++p)
      scatter(l_row_idx_[p], -l_values_[p] * ukj);
  };

  std::vector<std::pair<std::size_t, T>> ucol;  // (elim step, value)
  for (std::size_t j = 0; j < n; ++j) {
    pattern_.clear();
    for (std::size_t p = acp[j]; p < acp[j + 1]; ++p) scatter(ari[p], av[p]);

    // Apply updates from previous elimination steps in ascending order.
    if (sym) {
      for (std::size_t q = sym->upd_ptr_[j]; q < sym->upd_ptr_[j + 1]; ++q)
        apply_update(sym->upd_step_[q]);
    } else {
      // Ordered reach: mark the step of each newly occupied pivot row, then
      // apply the lowest pending step; its update appends the rows it
      // occupies to pattern_, to be marked in turn.
      for (std::size_t marked = 0;;) {
        for (; marked < pattern_.size(); ++marked) {
          const std::size_t r = pattern_[marked];
          if (pivoted_[r]) pending.add(perm_inv_[r]);
        }
        const std::size_t k = pending.pop();
        if (k == kNoStep) break;
        apply_update(k);
      }
    }

    // Choose pivot among rows not yet pivoted.
    std::size_t piv_row = static_cast<std::size_t>(-1);
    double best = pivot_tol;
    for (const std::size_t r : pattern_) {
      if (pivoted_[r]) continue;
      const double mag = std::abs(work_[r]);
      if (mag > best) {
        best = mag;
        piv_row = r;
      }
    }
    if (sym) {
      if (piv_row != sym->perm_[j]) {
        if (sym_out) {
          // Drift repair: everything eliminated so far is identical to a
          // fresh analysis (the update lists yield exactly the updates the
          // reach would; the pivot scan above is the analyze-mode scan),
          // so adopt the freshly scanned pivot and continue in
          // analyze mode — the remaining columns can no longer trust the
          // old symbolic's update lists.
          if (piv_row == static_cast<std::size_t>(-1)) throw SingularMatrixError(j);
          drift_repaired = true;
          sym = nullptr;
        } else {
          // Strict replay: abort so the caller re-analyzes (keeping the
          // analyze path the only source of pivot decisions).
          for (const std::size_t r : pattern_) {
            work_[r] = T{};
            occupied_[r] = 0;
          }
          n_ = 0;
          return false;
        }
      }
    } else if (piv_row == static_cast<std::size_t>(-1)) {
      throw SingularMatrixError(j);
    }
    const T piv_val = work_[piv_row];

    // Emit U column j: previously pivoted rows, ordered by elimination step,
    // then the diagonal last (solve() relies on diagonal-last).
    ucol.clear();
    for (const std::size_t r : pattern_) {
      if (pivoted_[r] && work_[r] != T{}) ucol.emplace_back(perm_inv_[r], work_[r]);
    }
    std::sort(ucol.begin(), ucol.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [step, v] : ucol) {
      u_row_idx_.push_back(step);
      u_values_.push_back(v);
    }
    u_row_idx_.push_back(j);
    u_values_.push_back(piv_val);
    u_col_ptr_[j + 1] = u_values_.size();

    // Emit L column j (original row indices, scaled by pivot).
    for (const std::size_t r : pattern_) {
      if (!pivoted_[r] && r != piv_row && work_[r] != T{}) {
        l_row_idx_.push_back(r);
        l_values_.push_back(work_[r] / piv_val);
      }
    }
    l_col_ptr_[j + 1] = l_values_.size();

    perm_[j] = piv_row;
    perm_inv_[piv_row] = j;
    pivoted_[piv_row] = 1;

    for (const std::size_t r : pattern_) {
      work_[r] = T{};
      occupied_[r] = 0;
    }
  }

  // Structure-only closure under the now-pinned permutation. The numeric
  // factors above drop entries that are exactly zero at the analyzed values;
  // a symbolic built from them could miss updates that become nonzero at
  // other values. This pass re-runs the ordered reach with every structural
  // entry treated as nonzero, so the update lists cover any value
  // assignment with this pattern and come out in ascending step order.
  // In replay mode the caller's symbolic is only rewritten when a drift
  // actually invalidated it — a clean replay leaves it untouched (it may
  // alias `sym`; all reads of `sym` happened in the column loop above).
  if (sym_out && (!replay || drift_repaired)) {
    SparseLuSymbolic<T>& s = *sym_out;
    s.n_ = n;
    s.perm_ = perm_;
    s.perm_inv_ = perm_inv_;
    s.pat_col_ptr_ = acp;
    s.pat_row_idx_ = ari;
    s.upd_ptr_.assign(n + 1, 0);
    s.upd_step_.clear();
    s.l_capacity_ = 0;
    s.u_capacity_ = 0;

    std::vector<std::size_t> sl_col_ptr(n + 1, 0);
    std::vector<std::size_t> sl_row_idx;
    std::vector<char> occ(n, 0);
    std::vector<std::size_t> pat;
    for (std::size_t j = 0; j < n; ++j) {
      pat.clear();
      auto touch = [&](std::size_t row) {
        if (!occ[row]) {
          occ[row] = 1;
          pat.push_back(row);
          if (perm_inv_[row] < j) pending.add(perm_inv_[row]);
        }
      };
      for (std::size_t p = acp[j]; p < acp[j + 1]; ++p) touch(ari[p]);
      for (std::size_t k; (k = pending.pop()) != kNoStep;) {
        s.upd_step_.push_back(k);
        for (std::size_t p = sl_col_ptr[k]; p < sl_col_ptr[k + 1]; ++p)
          touch(sl_row_idx[p]);
      }
      s.upd_ptr_[j + 1] = s.upd_step_.size();
      for (const std::size_t r : pat) {
        if (perm_inv_[r] > j) sl_row_idx.push_back(r);
        occ[r] = 0;
      }
      sl_col_ptr[j + 1] = sl_row_idx.size();
    }
    s.l_capacity_ = sl_row_idx.size();
    s.u_capacity_ = s.upd_step_.size() + n;
  }
  if (drifted) *drifted = drift_repaired;
  return true;
}

template <typename T>
std::vector<T> SparseLu<T>::solve(const std::vector<T>& b) const {
  if (b.size() != n_) throw std::invalid_argument("SparseLu::solve size mismatch");
  // Forward substitution in elimination-step coordinates: y = L^{-1} P b.
  std::vector<T> y(n_);
  for (std::size_t j = 0; j < n_; ++j) y[j] = b[perm_[j]];
  for (std::size_t j = 0; j < n_; ++j) {
    const T yj = y[j];
    if (yj == T{}) continue;
    for (std::size_t p = l_col_ptr_[j]; p < l_col_ptr_[j + 1]; ++p)
      y[perm_inv_[l_row_idx_[p]]] -= l_values_[p] * yj;
  }
  // Back substitution with U (diagonal stored last in each column).
  std::vector<T>& x = y;
  for (std::size_t jj = n_; jj-- > 0;) {
    const std::size_t lo = u_col_ptr_[jj], hi = u_col_ptr_[jj + 1];
    const T xj = x[jj] / u_values_[hi - 1];
    x[jj] = xj;
    if (xj == T{}) continue;
    for (std::size_t p = lo; p + 1 < hi; ++p) x[u_row_idx_[p]] -= u_values_[p] * xj;
  }
  return x;
}

// With P A = L U (elimination-step coordinates, as in solve()), A^T x = b
// becomes U^T L^T (P x) = b: a forward solve with U^T (gather form, columns
// ascending, diagonal stored last), a backward solve with L^T (unit
// diagonal, entries gathered through perm_inv_), then undo the permutation.
template <typename T>
std::vector<T> SparseLu<T>::solve_transposed(const std::vector<T>& b) const {
  if (b.size() != n_) throw std::invalid_argument("SparseLu::solve_transposed size mismatch");
  std::vector<T> w(b);
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t lo = u_col_ptr_[j], hi = u_col_ptr_[j + 1];
    T s = w[j];
    for (std::size_t p = lo; p + 1 < hi; ++p) s -= u_values_[p] * w[u_row_idx_[p]];
    w[j] = s / u_values_[hi - 1];
  }
  for (std::size_t jj = n_; jj-- > 0;) {
    T s = w[jj];
    for (std::size_t p = l_col_ptr_[jj]; p < l_col_ptr_[jj + 1]; ++p)
      s -= l_values_[p] * w[perm_inv_[l_row_idx_[p]]];
    w[jj] = s;
  }
  std::vector<T> x(n_);
  for (std::size_t j = 0; j < n_; ++j) x[perm_[j]] = w[j];
  return x;
}

template class TripletMatrix<double>;
template class TripletMatrix<std::complex<double>>;
template class CscMatrix<double>;
template class CscMatrix<std::complex<double>>;
template class TripletCscMap<double>;
template class TripletCscMap<std::complex<double>>;
template class SparseLuSymbolic<double>;
template class SparseLuSymbolic<std::complex<double>>;
template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

}  // namespace rfmix::mathx
