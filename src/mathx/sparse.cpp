#include "mathx/sparse.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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
  const auto& te = t.entries();
  const std::size_t m = te.size();
  std::vector<std::size_t> start(t.cols() + 1, 0);
  for (std::size_t k = 0; k < m; ++k) ++start[te[k].col + 1];
  for (std::size_t j = 0; j < t.cols(); ++j) start[j + 1] += start[j];
  std::vector<std::size_t> next(start.begin(), start.end() - 1);
  std::vector<std::size_t> arrival(m);
  for (std::size_t k = 0; k < m; ++k) arrival[next[te[k].col]++] = k;

  col_ptr.assign(t.cols() + 1, 0);
  row_idx.clear();
  row_idx.reserve(m);
  for (std::size_t j = 0; j < t.cols(); ++j) {
    const auto lo = arrival.begin() + static_cast<std::ptrdiff_t>(start[j]);
    const auto hi = arrival.begin() + static_cast<std::ptrdiff_t>(start[j + 1]);
    std::sort(lo, hi, [&](std::size_t a, std::size_t b) { return te[a].row < te[b].row; });
    for (auto it = lo; it != hi; ++it) {
      const std::size_t row = te[*it].row;
      const bool first = row_idx.size() == col_ptr[j] || row_idx.back() != row;
      if (first) row_idx.push_back(row);
      visit(*it, first);
    }
    col_ptr[j + 1] = row_idx.size();
  }
}

}  // namespace

template <typename T>
void TripletMatrix<T>::truncate(std::size_t count) {
  entries_.resize(count);
}

template <typename T>
CscMatrix<T>::CscMatrix(const TripletMatrix<T>& t) : rows_(t.rows()), cols_(t.cols()) {
  const auto& te = t.entries();
  values_.reserve(te.size());
  triplet_to_csc(t, col_ptr_, row_idx_, [&](std::size_t k, bool first) {
    if (first)
      values_.push_back(te[k].value);
    else
      values_.back() += te[k].value;
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
  trip_rows_.resize(t.entry_count());
  trip_cols_.resize(t.entry_count());
  for (std::size_t k = 0; k < t.entry_count(); ++k) {
    trip_rows_[k] = t.entries()[k].row;
    trip_cols_[k] = t.entries()[k].col;
  }
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
bool TripletCscMap<T>::matches(const TripletMatrix<T>& t) const {
  if (t.rows() != rows_ || t.cols() != cols_ || t.entry_count() != trip_rows_.size())
    return false;
  for (std::size_t k = 0; k < trip_rows_.size(); ++k) {
    const auto& e = t.entries()[k];
    if (e.row != trip_rows_[k] || e.col != trip_cols_[k]) return false;
  }
  return true;
}

template <typename T>
void TripletCscMap<T>::fill(const TripletMatrix<T>& t, CscMatrix<T>& csc) const {
  const auto& te = t.entries();
  if (te.size() != walk_src_.size())
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
      v[end++] = te[walk_src_[w]].value;
    else
      v[end - 1] += te[walk_src_[w]].value;
  }
}

template <typename T>
SparseLu<T>::SparseLu(const CscMatrix<T>& a) {
  analyze(a);
}

template <typename T>
SparseLu<T>::SparseLu(const CscMatrix<T>& a, SparseLuSymbolic<T>& sym_out) {
  analyze(a, &sym_out);
}

template <typename T>
bool SparseLu<T>::refactor_from(const SparseLuSymbolic<T>& sym, const CscMatrix<T>& a) {
  n_ = 0;
  if (!sym.pattern_matches(a)) return false;
  const std::size_t n = sym.n_;
  // Size the factor buffers for the plan's slots before the replay. Not
  // inside replay_plan(): inlined there, the resizes made GCC 12 at -O3
  // compile the complex replay loop about 2.5x slower (N-path block systems).
  l_col_ptr_.assign(n + 1, 0);
  u_col_ptr_.assign(n + 1, 0);
  work_.assign(n, T{});
  l_row_idx_.resize(sym.l_capacity());
  l_values_.resize(sym.l_capacity());
  u_row_idx_.resize(sym.u_capacity());
  u_values_.resize(sym.u_capacity());
  perm_ = sym.perm_;
  perm_inv_ = sym.perm_inv_;
  if (!replay_plan(a, sym)) return false;
  n_ = n;
  return true;
}

// The structural replay. While every update coefficient U(k, j) and every L
// entry comes out nonzero, the analysis keeps every structural entry, so
// column j touches exactly the rows the closure recorded, in the same first-
// touch order: the updates are the listed steps in ascending order, the
// pivot candidates are the L rows with the pinned pivot at its rank, and U
// and L fill their structural slots. Each column then runs straight off the
// plan, with no occupied flags, pattern list, push or sort, and computes
// the analysis's bytes: the same arithmetic in the same order, and the same
// candidate order for the pivot scan (ties go to the first maximum). At the
// first column where an exact zero would make the analysis drop an entry
// (changing which rows later columns touch, and in what order), or where
// the pinned pivot loses the scan, the replay stops and refuses. The work
// column is zero on entry and on return.
template <typename T>
bool SparseLu<T>::replay_plan(const CscMatrix<T>& a, const SparseLuSymbolic<T>& sym) {
  const std::size_t n = sym.n_;
  const std::size_t* acp = a.col_ptr().data();
  const std::size_t* ari = a.row_idx().data();
  const T* av = a.values().data();
  const std::size_t* perm = sym.perm_.data();
  const std::size_t* upd_ptr = sym.upd_ptr_.data();
  const std::uint32_t* upd_step = sym.upd_step_.data();
  const std::size_t* l_ptr = sym.l_ptr_.data();
  const std::uint32_t* l_row = sym.l_row_.data();
  T* w = work_.data();
  std::size_t* lcp = l_col_ptr_.data();
  std::size_t* lri = l_row_idx_.data();
  T* lv = l_values_.data();
  std::size_t* ucp = u_col_ptr_.data();
  std::size_t* uri = u_row_idx_.data();
  T* uv = u_values_.data();

  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = acp[j]; p < acp[j + 1]; ++p) w[ari[p]] += av[p];
    const std::size_t q0 = upd_ptr[j], q1 = upd_ptr[j + 1];
    const std::size_t l0 = l_ptr[j], l1 = l_ptr[j + 1];
    const std::size_t piv_row = perm[j];
    bool held = true;
    std::size_t up = ucp[j];
    for (std::size_t q = q0; q < q1; ++q) {
      const std::size_t k = upd_step[q];
      const T ukj = w[perm[k]];
      if (ukj == T{}) {
        held = false;
        break;
      }
      uri[up] = k;
      uv[up] = ukj;
      ++up;
      for (std::size_t p = lcp[k]; p < lcp[k + 1]; ++p) w[lri[p]] += -lv[p] * ukj;
    }
    if (held) {
      std::size_t scanned = kNoStep;
      double best = 0.0;  // a pivot must be nonzero
      auto consider = [&](std::size_t r) {
        const double mag = std::abs(w[r]);
        if (mag > best) {
          best = mag;
          scanned = r;
        }
      };
      const std::size_t lr = l0 + sym.piv_rank_[j];
      for (std::size_t i = l0; i < lr; ++i) consider(l_row[i]);
      consider(piv_row);
      for (std::size_t i = lr; i < l1; ++i) consider(l_row[i]);
      held = scanned == piv_row;
    }
    if (held) {
      const T piv_val = w[piv_row];
      uri[up] = j;
      uv[up] = piv_val;
      ucp[j + 1] = up + 1;
      std::size_t lp = lcp[j];
      for (std::size_t i = l0; i < l1 && held; ++i) {
        const T v = w[l_row[i]];
        held = v != T{};
        lri[lp] = l_row[i];
        lv[lp] = v / piv_val;
        ++lp;
      }
      lcp[j + 1] = lp;
    }
    for (std::size_t q = q0; q < q1; ++q) w[perm[upd_step[q]]] = T{};
    w[piv_row] = T{};
    for (std::size_t i = l0; i < l1; ++i) w[l_row[i]] = T{};
    if (!held) return false;
  }
  return true;
}

// Left-looking column LU with partial pivoting, using a dense work column in
// *original* row coordinates. L columns store original row indices so no
// renumbering pass is needed; the permutation maps elimination step -> chosen
// pivot row.
//
// Column j takes the update of every earlier step k whose pivot row
// perm_[k] is occupied, in ascending k, skipping those with U(k, j) exactly
// zero. Instead of scanning all k < j, an ordered reach finds them: a step
// becomes pending when its pivot row becomes occupied, and the lowest
// pending step is applied next. L column k only holds rows
// not yet pivoted at step k, so applying step k only makes later steps
// pending. Each step is therefore reached after all the updates that feed
// its pivot row and in ascending order, exactly as a scan over all k < j
// would reach it, so the factors, permutation and symbolic lists are
// byte-identical to that scan's (tests/mathx/test_lu_oracle.cpp pins them).
// A column costs its reach plus the bitset words that reach spans instead of
// O(j); on the fill-free 118,784-device rx_array that took the analysis from
// 6.4 s to ~25 ms (docs/solver.md). A depth-first reach needs a sort of the
// reached steps to restore this order, and it walks each reached L column
// twice; it was slower than the scan on matrices with fill.
template <typename T>
void SparseLu<T>::analyze(const CscMatrix<T>& a, SparseLuSymbolic<T>* sym_out) {
  if (a.rows() != a.cols()) throw std::invalid_argument("SparseLu requires square matrix");
  const std::size_t n = a.rows();
  n_ = 0;  // empty until the last column is factored
  l_col_ptr_.assign(n + 1, 0);
  u_col_ptr_.assign(n + 1, 0);
  work_.assign(n, T{});  // dense column, original row coords
  l_row_idx_.clear();
  l_values_.clear();
  u_row_idx_.clear();
  u_values_.clear();
  perm_.assign(n, kNoStep);
  perm_inv_.assign(n, kNoStep);
  occupied_.assign(n, 0);  // nonzero-pattern flags for `work_`
  pattern_.clear();        // rows currently occupied
  pivoted_.assign(n, 0);   // original row already chosen as pivot?
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

  for (std::size_t j = 0; j < n; ++j) {
    pattern_.clear();
    for (std::size_t p = acp[j]; p < acp[j + 1]; ++p) scatter(ari[p], av[p]);

    // Ordered reach: mark the step of each newly occupied pivot row, then
    // apply the lowest pending step; its update appends the rows it occupies
    // to pattern_, to be marked in turn.
    for (std::size_t marked = 0;;) {
      for (; marked < pattern_.size(); ++marked) {
        const std::size_t r = pattern_[marked];
        if (pivoted_[r]) pending.add(perm_inv_[r]);
      }
      const std::size_t k = pending.pop();
      if (k == kNoStep) break;
      apply_update(k);
    }

    // Choose the pivot among rows not yet pivoted: the first of the largest
    // magnitudes, which must be nonzero.
    std::size_t piv_row = kNoStep;
    double best = 0.0;
    for (const std::size_t r : pattern_) {
      if (pivoted_[r]) continue;
      const double mag = std::abs(work_[r]);
      if (mag > best) {
        best = mag;
        piv_row = r;
      }
    }
    if (piv_row == kNoStep) throw SingularMatrixError(j);
    const T piv_val = work_[piv_row];

    // Emit U column j: previously pivoted rows, ordered by elimination step,
    // then the diagonal last (solve() relies on diagonal-last).
    ucol_.clear();
    for (const std::size_t r : pattern_) {
      if (pivoted_[r] && work_[r] != T{}) ucol_.emplace_back(perm_inv_[r], work_[r]);
    }
    std::sort(ucol_.begin(), ucol_.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [step, v] : ucol_) {
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
  // entry treated as nonzero, so the plan covers any value assignment with
  // this pattern: the update lists come out in ascending step order, and
  // each column's L rows in the order a full-structure elimination first
  // touches them.
  if (sym_out) {
    if (n > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("SparseLu: more unknowns than a 32-bit plan indexes");
    SparseLuSymbolic<T>& s = *sym_out;
    s.n_ = n;
    s.perm_ = perm_;
    s.perm_inv_ = perm_inv_;
    s.pat_col_ptr_ = acp;
    s.pat_row_idx_ = ari;
    s.upd_ptr_.assign(n + 1, 0);
    s.upd_step_.clear();
    s.l_ptr_.assign(n + 1, 0);
    s.l_row_.clear();
    s.piv_rank_.assign(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      pattern_.clear();
      auto touch = [&](std::size_t row) {
        if (!occupied_[row]) {
          occupied_[row] = 1;
          pattern_.push_back(row);
          if (perm_inv_[row] < j) pending.add(perm_inv_[row]);
        }
      };
      for (std::size_t p = acp[j]; p < acp[j + 1]; ++p) touch(ari[p]);
      for (std::size_t k; (k = pending.pop()) != kNoStep;) {
        s.upd_step_.push_back(static_cast<std::uint32_t>(k));
        for (std::size_t p = s.l_ptr_[k]; p < s.l_ptr_[k + 1]; ++p) touch(s.l_row_[p]);
      }
      s.upd_ptr_[j + 1] = s.upd_step_.size();
      std::uint32_t rank = 0;  // L rows touched before the pivot row
      bool pivot_seen = false;
      for (const std::size_t r : pattern_) {
        if (perm_inv_[r] > j) {
          s.l_row_.push_back(static_cast<std::uint32_t>(r));
          if (!pivot_seen) ++rank;
        } else if (perm_inv_[r] == j) {
          pivot_seen = true;
        }
        occupied_[r] = 0;
      }
      s.l_ptr_[j + 1] = s.l_row_.size();
      s.piv_rank_[j] = rank;
    }
  }
  n_ = n;
}

template <typename T>
std::vector<T> SparseLu<T>::solve(const std::vector<T>& b) const {
  std::vector<T> x;
  solve(b, x);
  return x;
}

template <typename T>
void SparseLu<T>::solve(const std::vector<T>& b, std::vector<T>& x) const {
  if (b.size() != n_) throw std::invalid_argument("SparseLu::solve size mismatch");
  if (&x == &b) throw std::invalid_argument("SparseLu::solve: x must not be b");
  // Forward substitution in elimination-step coordinates: y = L^{-1} P b.
  x.resize(n_);
  for (std::size_t j = 0; j < n_; ++j) x[j] = b[perm_[j]];
  for (std::size_t j = 0; j < n_; ++j) {
    const T yj = x[j];
    if (yj == T{}) continue;
    for (std::size_t p = l_col_ptr_[j]; p < l_col_ptr_[j + 1]; ++p)
      x[perm_inv_[l_row_idx_[p]]] -= l_values_[p] * yj;
  }
  // Back substitution with U (diagonal stored last in each column).
  for (std::size_t jj = n_; jj-- > 0;) {
    const std::size_t lo = u_col_ptr_[jj], hi = u_col_ptr_[jj + 1];
    const T xj = x[jj] / u_values_[hi - 1];
    x[jj] = xj;
    if (xj == T{}) continue;
    for (std::size_t p = lo; p + 1 < hi; ++p) x[u_row_idx_[p]] -= u_values_[p] * xj;
  }
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
