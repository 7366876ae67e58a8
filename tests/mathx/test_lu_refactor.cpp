// Analyze-once/refactor-per-step contract of the sparse LU (docs/solver.md):
// a successful refactor_from() must be byte-identical to a fresh analyzing
// factorization of the same matrix, and any disagreement — pattern change,
// pivot drift, singular pinned pivot — must abort the refactor so the caller
// can re-analyze. The structural replay (the symbolic's plan) must hand over
// to the analysis wherever an exact zero changes the structure.
#include "mathx/sparse.hpp"
#include "mathx/sweep_lu.hpp"

#include <cmath>
#include <complex>
#include <cstring>
#include <gtest/gtest.h>
#include <optional>
#include <string>
#include <type_traits>

#include "core/circuits.hpp"
#include "mathx/lu.hpp"
#include "mathx/rng.hpp"
#include "mathx/units.hpp"
#include "spice/mna.hpp"
#include "spice/op.hpp"

namespace rfmix::mathx {
namespace {

/// Bitwise equality of two double vectors (0.0 vs -0.0 and NaN payloads
/// matter for the bit-exactness contract, so no operator== here).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A diagonally-dominant random sparse matrix: dense diagonal plus `extra`
/// random off-diagonal entries (duplicates allowed — they must merge the
/// same way through the map as through the constructor).
TripletMatrix<double> random_system(Rng& rng, std::size_t n, std::size_t extra) {
  TripletMatrix<double> t(n, n);
  for (std::size_t i = 0; i < n; ++i)
    t.add(i, i, 4.0 + rng.uniform());
  for (std::size_t k = 0; k < extra; ++k) {
    const std::size_t r = rng.next_u64() % n;
    const std::size_t c = rng.next_u64() % n;
    t.add(r, c, rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// New values on the exact entry sequence of `t` (same pattern by
/// construction), keeping the diagonal dominant so pivots stay pinned.
TripletMatrix<double> revalue(Rng& rng, const TripletMatrix<double>& t) {
  TripletMatrix<double> out(t.rows(), t.cols());
  for (std::size_t k = 0; k < t.entry_count(); ++k) {
    const bool diag = t.entries()[k].row == t.entries()[k].col;
    out.add(t.entries()[k].row, t.entries()[k].col,
            diag ? 4.0 + rng.uniform() : rng.uniform(-1.0, 1.0));
  }
  return out;
}

std::vector<double> rhs(Rng& rng, std::size_t n) {
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

TEST(TripletCscMapTest, FillIsByteIdenticalToConstructor) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const auto t = random_system(rng, 12, 40);
    TripletCscMap<double> map;
    map.build(t);
    ASSERT_TRUE(map.matches(t));
    CscMatrix<double> filled;
    map.fill(t, filled);
    const CscMatrix<double> fresh(t);
    EXPECT_EQ(filled.col_ptr(), fresh.col_ptr());
    EXPECT_EQ(filled.row_idx(), fresh.row_idx());
    EXPECT_TRUE(same_bits(filled.values(), fresh.values()));
  }
}

TEST(TripletCscMapTest, SignedZeroDuplicateMergeMatchesConstructor) {
  // First hit must assign, not accumulate into T{}: 0.0 + (-0.0) == +0.0,
  // so an accumulate-from-zero fill would flip the sign bit.
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, -0.0);
  t.add(1, 1, 1.0);
  t.add(0, 1, -0.0);
  t.add(0, 1, -0.0);  // duplicate merge: -0.0 + -0.0 = -0.0
  TripletCscMap<double> map;
  map.build(t);
  CscMatrix<double> filled;
  map.fill(t, filled);
  const CscMatrix<double> fresh(t);
  EXPECT_EQ(fresh.nnz(), 3u);
  EXPECT_TRUE(same_bits(filled.values(), fresh.values()));
  EXPECT_TRUE(std::signbit(filled.values()[0]));
  EXPECT_TRUE(std::signbit(filled.values()[1]));
}

TEST(TripletCscMapTest, MatchesRejectsPatternChange) {
  Rng rng(7);
  const auto t = random_system(rng, 8, 10);
  TripletCscMap<double> map;
  map.build(t);
  TripletMatrix<double> grown = t;
  grown.add(0, 7, 0.5);  // one extra stamp: different entry sequence
  EXPECT_FALSE(map.matches(grown));
  TripletMatrix<double> reordered(t.rows(), t.cols());
  for (std::size_t k = t.entry_count(); k-- > 0;)
    reordered.add(t.entries()[k].row, t.entries()[k].col, t.entries()[k].value);
  EXPECT_FALSE(map.matches(reordered));
}

/// Same (row, col) sequence and the same value bits.
bool same_entries(const TripletMatrix<double>& a, const TripletMatrix<double>& b) {
  if (a.entry_count() != b.entry_count()) return false;
  for (std::size_t k = 0; k < a.entry_count(); ++k) {
    const auto& x = a.entries()[k];
    const auto& y = b.entries()[k];
    if (x.row != y.row || x.col != y.col ||
        std::memcmp(&x.value, &y.value, sizeof x.value) != 0)
      return false;
  }
  return true;
}

// A restamp that repeats the recorded (row, col) sequence only rewrites
// values; any deviation leaves exactly the triplets a clear() + add() pass
// would have built, and finish_restamp() reports it.
TEST(TripletRestampTest, RepeatedSequenceRewritesValuesOnly) {
  Rng rng(21);
  TripletMatrix<double> t = random_system(rng, 6, 10);
  EXPECT_FALSE(t.finish_restamp());  // first sequence: a change
  const TripletMatrix<double> fresh = revalue(rng, t);
  t.restamp();
  for (std::size_t k = 0; k < fresh.entry_count(); ++k)
    t.add(fresh.entries()[k].row, fresh.entries()[k].col, fresh.entries()[k].value);
  EXPECT_TRUE(t.finish_restamp());
  EXPECT_TRUE(same_entries(t, fresh));
}

TEST(TripletRestampTest, DeviationsRecordLikeClear) {
  Rng rng(22);
  const TripletMatrix<double> base = random_system(rng, 6, 10);
  const std::size_t m = base.entry_count();
  // Shorter, longer, and one (row, col) moved mid-sequence.
  for (int variant = 0; variant < 3; ++variant) {
    TripletMatrix<double> t = base;
    (void)t.finish_restamp();
    TripletMatrix<double> expect(6, 6);
    t.restamp();
    for (std::size_t k = 0; k < m; ++k) {
      if (variant == 0 && k == m - 1) break;
      std::size_t c = base.entries()[k].col;
      if (variant == 2 && k == m / 2) c = (c + 1) % 6;
      t.add(base.entries()[k].row, c, 0.5 + static_cast<double>(k));
      expect.add(base.entries()[k].row, c, 0.5 + static_cast<double>(k));
    }
    if (variant == 1) {
      t.add(5, 0, -1.0);
      expect.add(5, 0, -1.0);
    }
    EXPECT_FALSE(t.finish_restamp()) << "variant " << variant;
    EXPECT_TRUE(same_entries(t, expect)) << "variant " << variant;
    // The new sequence, repeated, is a match again.
    t.restamp();
    for (std::size_t k = 0; k < expect.entry_count(); ++k)
      t.add(expect.entries()[k].row, expect.entries()[k].col, expect.entries()[k].value);
    EXPECT_TRUE(t.finish_restamp()) << "variant " << variant;
  }
}

TEST(TripletRestampTest, AddAfterFinishAndCutShortRestampsCountAsChanges) {
  Rng rng(23);
  TripletMatrix<double> t = random_system(rng, 5, 6);
  (void)t.finish_restamp();
  t.add(4, 4, 1.0);  // appended outside a restamp
  EXPECT_FALSE(t.finish_restamp());
  // A restamp that deviates and then stops (an exception in the middle of
  // assembly) is still reported at the next finish.
  t.restamp();
  t.add(t.entries()[0].row, t.entries()[0].col, 2.0);
  t.add(0, 4, 3.0);  // deviation
  t.restamp();
  for (std::size_t k = 0; k < t.entry_count(); ++k)
    t.add(t.entries()[k].row, t.entries()[k].col, 1.0);
  EXPECT_FALSE(t.finish_restamp());
  EXPECT_THROW(t.add(5, 0, 1.0), std::out_of_range);
}

TEST(SparseLuRefactorTest, RefactorReproducesAnalyzeBitExactly) {
  Rng rng(1);
  const auto t0 = random_system(rng, 16, 60);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> first(CscMatrix<double>(t0), sym);
  ASSERT_FALSE(sym.empty());

  TripletCscMap<double> map;
  map.build(t0);
  for (int step = 0; step < 10; ++step) {
    const auto t = revalue(rng, t0);
    ASSERT_TRUE(map.matches(t));
    CscMatrix<double> a;
    map.fill(t, a);
    ASSERT_TRUE(sym.pattern_matches(a));

    SparseLu<double> fast;
    ASSERT_TRUE(fast.refactor_from(sym, a)) << "step " << step;
    const SparseLu<double> slow(a);

    const auto b = rhs(rng, 16);
    EXPECT_TRUE(same_bits(fast.solve(b), slow.solve(b))) << "step " << step;
    EXPECT_TRUE(same_bits(fast.solve_transposed(b), slow.solve_transposed(b)))
        << "step " << step;
  }
}

TEST(SparseLuRefactorTest, RefactorTargetBuffersAreReusable) {
  // A Newton loop refactors into the same SparseLu object every iteration.
  Rng rng(2);
  const auto t0 = random_system(rng, 10, 30);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t0), sym);
  SparseLu<double> lu;
  for (int step = 0; step < 5; ++step) {
    const CscMatrix<double> a(revalue(rng, t0));
    ASSERT_TRUE(lu.refactor_from(sym, a));
    const auto b = rhs(rng, 10);
    EXPECT_TRUE(same_bits(lu.solve(b), SparseLu<double>(a).solve(b)));
  }
}

TEST(SparseLuRefactorTest, PatternMismatchRefusesToRefactor) {
  Rng rng(3);
  const auto t0 = random_system(rng, 8, 12);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t0), sym);

  TripletMatrix<double> grown = t0;
  grown.add(0, 7, 1e-3);
  const CscMatrix<double> a(grown);
  if (a.nnz() != CscMatrix<double>(t0).nnz()) {
    EXPECT_FALSE(sym.pattern_matches(a));
    SparseLu<double> lu;
    EXPECT_FALSE(lu.refactor_from(sym, a));
    EXPECT_EQ(lu.size(), 0u);
  }
}

TEST(SparseLuRefactorTest, PivotDriftRefusesToRefactor) {
  // Analyze pins the pivot of column 0 at row 1 (|3| > |1|); the new values
  // reverse the magnitudes, so honest partial pivoting would now choose row
  // 0. Producing factors with the stale pivot order would deviate from the
  // analyzing path, so the refactor must refuse.
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 0, 3.0);
  t.add(0, 1, 2.0);
  t.add(1, 1, 1.0);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t), sym);

  TripletMatrix<double> flipped(2, 2);
  flipped.add(0, 0, 3.0);
  flipped.add(1, 0, 1.0);
  flipped.add(0, 1, 2.0);
  flipped.add(1, 1, 1.0);
  SparseLu<double> lu;
  EXPECT_FALSE(lu.refactor_from(sym, CscMatrix<double>(flipped)));

  // The caller's fallback — a fresh analysis — handles the same matrix.
  const CscMatrix<double> a(flipped);
  const SparseLu<double> fresh(a);
  const std::vector<double> b{1.0, 2.0};
  const auto x = fresh.solve(b);
  const auto ax = a.multiply(x);
  EXPECT_NEAR(ax[0], b[0], 1e-12);
  EXPECT_NEAR(ax[1], b[1], 1e-12);
}

TEST(SparseLuRefactorTest, PivotDriftRepairsWhenAsked) {
  // Same drifting system as above, but with a repair symbolic supplied: the
  // factorization must adopt the freshly scanned pivot, produce factors
  // byte-identical to a fresh analysis, and rewrite the repair symbolic so
  // the *next* refactor of the new value regime replays strictly.
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 0, 3.0);
  t.add(0, 1, 2.0);
  t.add(1, 1, 1.0);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t), sym);

  TripletMatrix<double> flipped(2, 2);
  flipped.add(0, 0, 3.0);
  flipped.add(1, 0, 1.0);
  flipped.add(0, 1, 2.0);
  flipped.add(1, 1, 1.0);
  const CscMatrix<double> a(flipped);

  SparseLu<double> lu;
  bool repaired = false;
  ASSERT_TRUE(lu.refactor_from(sym, a, 0.0, &sym, &repaired));  // aliased, as
  EXPECT_TRUE(repaired);  // SolverSession passes its own symbolic as repair
  const SparseLu<double> fresh(a);
  const std::vector<double> b{1.0, 2.0};
  EXPECT_TRUE(same_bits(lu.solve(b), fresh.solve(b)));
  EXPECT_TRUE(same_bits(lu.solve_transposed(b), fresh.solve_transposed(b)));

  // The repaired symbolic now pins the new pivot order: a strict replay of
  // the same values succeeds, and of the *original* values drifts again.
  SparseLu<double> again;
  EXPECT_TRUE(again.refactor_from(sym, a));
  EXPECT_TRUE(same_bits(again.solve(b), fresh.solve(b)));
  EXPECT_FALSE(again.refactor_from(sym, CscMatrix<double>(t)));
}

TEST(SparseLuRefactorTest, CleanReplayLeavesRepairSymbolicUntouched) {
  Rng rng(11);
  const auto t0 = random_system(rng, 12, 30);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t0), sym);
  // Dominant diagonals keep the pivots pinned, so the repair path must not
  // engage — and `repaired` is the only way callers count analyze vs
  // refactor, so a false positive would corrupt the obs counters.
  for (int step = 0; step < 5; ++step) {
    const CscMatrix<double> a(revalue(rng, t0));
    SparseLu<double> lu;
    bool repaired = true;
    ASSERT_TRUE(lu.refactor_from(sym, a, 0.0, &sym, &repaired));
    EXPECT_FALSE(repaired) << "step " << step;
    const auto b = rhs(rng, 12);
    EXPECT_TRUE(same_bits(lu.solve(b), SparseLu<double>(a).solve(b)));
  }
}

TEST(SparseLuRefactorTest, RepairSingularDriftColumnThrowsLikeAnalyze) {
  // If the drift column has no admissible pivot, repair must surface the
  // same SingularMatrixError the analyzing constructor would, not return a
  // half-factored object.
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 2.0);
  t.add(1, 1, 2.0);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t), sym);

  TripletMatrix<double> degenerate(2, 2);
  degenerate.add(0, 0, 0.0);
  degenerate.add(1, 1, 2.0);
  const CscMatrix<double> a(degenerate);
  SparseLu<double> lu;
  SparseLuSymbolic<double> repair_target = sym;
  EXPECT_THROW(lu.refactor_from(sym, a, 0.0, &repair_target), SingularMatrixError);
  EXPECT_THROW(SparseLu<double>{a}, SingularMatrixError);
}

TEST(SparseLuRefactorTest, FuzzRepairAgainstAnalyze) {
  // Adversarial twin of FuzzRefactorAgainstAnalyze: weak diagonals make
  // pivot drift common, and every repaired factorization must still be
  // byte-identical to a fresh analysis of the same values.
  Rng rng(0xBADD1E);
  int repairs = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 4 + rng.next_u64() % 16;
    TripletMatrix<double> t0(n, n);
    for (std::size_t i = 0; i < n; ++i) t0.add(i, i, rng.uniform(0.5, 1.5));
    for (std::size_t k = 0; k < 2 * n; ++k)
      t0.add(rng.next_u64() % n, rng.next_u64() % n, rng.uniform(-2.0, 2.0));
    SparseLuSymbolic<double> sym;
    const SparseLu<double> analyzed(CscMatrix<double>(t0), sym);
    TripletCscMap<double> map;
    map.build(t0);
    for (int step = 0; step < 4; ++step) {
      TripletMatrix<double> t(n, n);
      for (std::size_t k = 0; k < t0.entry_count(); ++k)
        t.add(t0.entries()[k].row, t0.entries()[k].col,
              t0.entries()[k].row == t0.entries()[k].col ? rng.uniform(0.5, 1.5)
                                                         : rng.uniform(-2.0, 2.0));
      CscMatrix<double> a;
      map.fill(t, a);
      SparseLu<double> lu;
      bool repaired = false;
      ASSERT_TRUE(lu.refactor_from(sym, a, 0.0, &sym, &repaired))
          << "trial " << trial << " step " << step;
      if (repaired) ++repairs;
      const auto b = rhs(rng, n);
      EXPECT_TRUE(same_bits(lu.solve(b), SparseLu<double>(a).solve(b)))
          << "trial " << trial << " step " << step << " repaired=" << repaired;
    }
  }
  EXPECT_GT(repairs, 20) << "weak diagonals should have drifted often";
}

TEST(SparseLuRefactorTest, SingularPinnedPivotRefusesToRefactor) {
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 2.0);
  t.add(1, 1, 2.0);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t), sym);

  TripletMatrix<double> degenerate(2, 2);
  degenerate.add(0, 0, 0.0);  // pinned pivot value collapses to zero
  degenerate.add(1, 1, 2.0);
  SparseLu<double> lu;
  EXPECT_FALSE(lu.refactor_from(sym, CscMatrix<double>(degenerate)));
  // And the analyzing path agrees the matrix is singular.
  EXPECT_THROW(SparseLu<double>(CscMatrix<double>(degenerate)),
               SingularMatrixError);
}

TEST(SparseLuRefactorTest, FuzzRefactorAgainstAnalyze) {
  // Randomized sweep with a fixed seed: many shapes and densities, each
  // analyzed once and refactored through several value changes. Every
  // refactor either succeeds byte-exactly or refuses; refusal is only
  // acceptable here for pivot drift, which dominant diagonals make rare —
  // when it happens, the fallback analyze must still solve correctly.
  Rng rng(0xC0FFEE);
  int refactors = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 4 + rng.next_u64() % 20;
    const std::size_t extra = rng.next_u64() % (3 * n);
    const auto t0 = random_system(rng, n, extra);
    SparseLuSymbolic<double> sym;
    const SparseLu<double> analyzed(CscMatrix<double>(t0), sym);
    TripletCscMap<double> map;
    map.build(t0);
    for (int step = 0; step < 4; ++step) {
      const auto t = revalue(rng, t0);
      CscMatrix<double> a;
      map.fill(t, a);
      SparseLu<double> lu;
      const auto b = rhs(rng, n);
      if (lu.refactor_from(sym, a)) {
        ++refactors;
        EXPECT_TRUE(same_bits(lu.solve(b), SparseLu<double>(a).solve(b)))
            << "trial " << trial << " step " << step;
      } else {
        const auto x = SparseLu<double>(a).solve(b);
        const auto ax = a.multiply(x);
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_NEAR(ax[i], b[i], 1e-9) << "trial " << trial;
      }
    }
  }
  // The dominant diagonal keeps pivots pinned, so nearly every step should
  // have taken the fast path; a refactor that never engages would make this
  // whole suite vacuous.
  EXPECT_GT(refactors, 100);
}

int g_sweep_steps[4];

void count_step(SweepStep step) { ++g_sweep_steps[static_cast<int>(step)]; }

// SweepLu decides replay by the symbolic's pattern, not by its stamp map: a
// point that stamps a different triplet sequence into the same CSC pattern
// (here it drops a zero stamp whose slot another stamp also fills) still
// replays, byte-identical to a cold analysis.
TEST(SweepLuTest, ReplaysWhenTripletsDifferButPatternMatches) {
  using Cplx = std::complex<double>;
  TripletMatrix<Cplx> first(2, 2), dropped(2, 2);
  for (TripletMatrix<Cplx>* t : {&first, &dropped}) {
    t->add(0, 0, {4.0, 0.0});
    t->add(1, 0, {1.0, 0.0});
    t->add(0, 1, {1.0, 0.0});
    t->add(1, 1, {4.0, 0.0});
  }
  first.add(0, 0, {0.0, 0.5});  // a jwC stamp the next point drops
  SweepLu<Cplx> sweep(&count_step);
  (void)sweep.factor(first);
  const int refactors = g_sweep_steps[static_cast<int>(SweepStep::kRefactor)];
  const SparseLu<Cplx> lu = sweep.factor(dropped);
  EXPECT_EQ(g_sweep_steps[static_cast<int>(SweepStep::kRefactor)], refactors + 1);
  const std::vector<Cplx> b{{1.0, 0.0}, {2.0, -1.0}};
  const std::vector<Cplx> x = lu.solve(b);
  const std::vector<Cplx> cold = SparseLu<Cplx>(CscMatrix<Cplx>(dropped)).solve(b);
  EXPECT_EQ(std::memcmp(x.data(), cold.data(), x.size() * sizeof(Cplx)), 0);
}

// ---------------------------------------------------------------------------
// Structural replay against a fresh analysis, real and complex.

using Cplx = std::complex<double>;

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// A real value as T: (v, 0) for a complex T.
template <typename T>
T val(double v) {
  return T(v);
}

/// Right-hand sides with distinct, inexact entries, so that a change in the
/// order of a sum shows in the solution bits of at least one of them.
template <typename T>
std::vector<T> bits_rhs(std::size_t n, int variant) {
  std::vector<T> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double k = static_cast<double>(i) + 0.61 * variant;
    const double re = std::sin(1.7 * k + 0.3) * (1.0 + 0.013 * k);
    if constexpr (std::is_same_v<T, Cplx>)
      b[i] = {re, std::cos(0.9 * k - 0.2)};
    else
      b[i] = re;
  }
  return b;
}

template <typename T>
void expect_same_solves(const SparseLu<T>& lu, const SparseLu<T>& cold, const std::string& where) {
  for (int variant = 0; variant < 8; ++variant) {
    const std::vector<T> b = bits_rhs<T>(cold.size(), variant);
    ASSERT_TRUE(same_bytes(lu.solve(b), cold.solve(b))) << where << ", rhs " << variant;
    ASSERT_TRUE(same_bytes(lu.solve_transposed(b), cold.solve_transposed(b)))
        << where << ", transposed rhs " << variant;
  }
}

/// The refactor contract for `a` against `sym` (analyzed on other values of
/// the same pattern), in both modes. Strict: byte-identical to SparseLu(a),
/// or false on drift or a singular pivot. Repair: byte-identical, repairing
/// exactly when strict refused, the rewritten symbolic equal in capacities
/// to a fresh analysis's and replaying `a` strictly; or SingularMatrixError
/// exactly when the analysis throws it.
template <typename T>
void expect_refactor_contract(const SparseLuSymbolic<T>& sym, const CscMatrix<T>& a,
                              const std::string& where) {
  std::optional<SparseLu<T>> cold;
  SparseLuSymbolic<T> cold_sym;
  try {
    cold.emplace(a, cold_sym);
  } catch (const SingularMatrixError&) {
  }
  SparseLu<T> strict;
  const bool strict_ok = strict.refactor_from(sym, a);
  SparseLuSymbolic<T> rewritten = sym;
  SparseLu<T> repair;
  bool repaired = false;
  if (!cold) {
    EXPECT_FALSE(strict_ok) << where;
    EXPECT_THROW(repair.refactor_from(sym, a, 0.0, &rewritten, &repaired), SingularMatrixError)
        << where;
    return;
  }
  ASSERT_TRUE(repair.refactor_from(sym, a, 0.0, &rewritten, &repaired)) << where;
  EXPECT_EQ(repaired, !strict_ok) << where;
  expect_same_solves(repair, *cold, where + " (repair)");
  if (strict_ok) expect_same_solves(strict, *cold, where + " (strict)");
  const SparseLuSymbolic<T>& expected = repaired ? cold_sym : sym;
  EXPECT_EQ(rewritten.l_capacity(), expected.l_capacity()) << where;
  EXPECT_EQ(rewritten.u_capacity(), expected.u_capacity()) << where;
  if (repaired) {
    SparseLu<T> again;
    ASSERT_TRUE(again.refactor_from(rewritten, a)) << where;
    expect_same_solves(again, *cold, where + " (rewritten symbolic)");
  }
}

/// Six unknowns with pivots on the diagonal. Column 2 takes the updates of
/// steps 0 and 1; step 0's L column holds row 5 and step 1's rows 4 and 5,
/// so a full-structure elimination first touches column 2's L rows in the
/// order 5, 4. When step 0's update drops out of column 2 — U(0, 2) or
/// L(5, 0) exactly zero — the analysis touches them in the order 4, 5, so
/// a replay that kept the structural order would sum solve_transposed()
/// in another order.
template <typename T>
TripletMatrix<T> reordering_system(double u02, double l50) {
  TripletMatrix<T> t(6, 6);
  t.add(0, 0, val<T>(4.1));
  t.add(5, 0, val<T>(l50));
  t.add(1, 1, val<T>(3.7));
  t.add(4, 1, val<T>(0.9));
  t.add(5, 1, val<T>(1.3));
  t.add(0, 2, val<T>(u02));
  t.add(1, 2, val<T>(0.7));
  t.add(2, 2, val<T>(4.3));
  t.add(3, 3, val<T>(3.9));
  t.add(2, 4, val<T>(0.3));
  t.add(4, 4, val<T>(4.7));
  t.add(2, 5, val<T>(0.6));
  t.add(3, 5, val<T>(0.2));
  t.add(5, 5, val<T>(5.3));
  return t;
}

template <typename T>
class StructuralReplayTest : public ::testing::Test {};

using ValueTypes = ::testing::Types<double, Cplx>;
TYPED_TEST_SUITE(StructuralReplayTest, ValueTypes);

TYPED_TEST(StructuralReplayTest, FullStructureReplaysByteIdentically) {
  using T = TypeParam;
  SparseLuSymbolic<T> sym;
  const SparseLu<T> analyzed(CscMatrix<T>(reordering_system<T>(0.8, 1.1)), sym);
  const CscMatrix<T> a(reordering_system<T>(-0.45, 0.95));
  SparseLu<T> lu;
  ASSERT_TRUE(lu.refactor_from(sym, a));
  expect_same_solves(lu, SparseLu<T>(a), "revalued");
  expect_refactor_contract(sym, a, "revalued");
}

TYPED_TEST(StructuralReplayTest, ExactZeroUpdateCoefficientHandsOver) {
  using T = TypeParam;
  SparseLuSymbolic<T> sym;
  const SparseLu<T> analyzed(CscMatrix<T>(reordering_system<T>(0.8, 1.1)), sym);
  // U(0, 2) = A(0, 2) is structural but exactly zero: the analysis skips
  // step 0's update in column 2.
  const CscMatrix<T> a(reordering_system<T>(0.0, 1.1));
  SparseLu<T> lu;
  ASSERT_TRUE(lu.refactor_from(sym, a));
  expect_same_solves(lu, SparseLu<T>(a), "U(0, 2) = 0");
  expect_refactor_contract(sym, a, "U(0, 2) = 0");
}

TYPED_TEST(StructuralReplayTest, ExactZeroLEntryHandsOver) {
  using T = TypeParam;
  SparseLuSymbolic<T> sym;
  const SparseLu<T> analyzed(CscMatrix<T>(reordering_system<T>(0.8, 1.1)), sym);
  // L(5, 0) is structural but exactly zero: the analysis drops it, so step
  // 0's update no longer reaches row 5.
  const CscMatrix<T> a(reordering_system<T>(0.8, 0.0));
  SparseLu<T> lu;
  ASSERT_TRUE(lu.refactor_from(sym, a));
  expect_same_solves(lu, SparseLu<T>(a), "L(5, 0) = 0");
  expect_refactor_contract(sym, a, "L(5, 0) = 0");
}

/// Four unknowns; column 2's pivot candidates are rows 2 and 3, holding
/// exactly `d2` and `d3` after two clean columns (step 0's update only
/// reaches row 1, step 1's none).
template <typename T>
TripletMatrix<T> middle_drift_system(double d2, double d3) {
  TripletMatrix<T> t(4, 4);
  t.add(0, 0, val<T>(4.1));
  t.add(1, 0, val<T>(0.7));
  t.add(0, 1, val<T>(0.5));
  t.add(1, 1, val<T>(3.3));
  t.add(0, 2, val<T>(0.9));
  t.add(1, 2, val<T>(1.2));
  t.add(2, 2, val<T>(d2));
  t.add(3, 2, val<T>(d3));
  t.add(2, 3, val<T>(1.5));
  t.add(3, 3, val<T>(2.9));
  return t;
}

TYPED_TEST(StructuralReplayTest, PivotDriftAtAMiddleColumn) {
  using T = TypeParam;
  SparseLuSymbolic<T> sym;
  const SparseLu<T> analyzed(CscMatrix<T>(middle_drift_system<T>(4.0, 1.0)), sym);
  // Row 3 now wins column 2's scan: strict refuses; repair adopts row 3 and
  // rewrites the symbolic, which then replays the new values strictly.
  const CscMatrix<T> a(middle_drift_system<T>(1.0, 4.0));
  SparseLu<T> strict;
  EXPECT_FALSE(strict.refactor_from(sym, a));
  EXPECT_EQ(strict.size(), 0u);
  SparseLuSymbolic<T> rewritten = sym;
  SparseLu<T> lu;
  bool repaired = false;
  ASSERT_TRUE(lu.refactor_from(rewritten, a, 0.0, &rewritten, &repaired));
  EXPECT_TRUE(repaired);
  expect_same_solves(lu, SparseLu<T>(a), "repaired");
  SparseLu<T> again;
  ASSERT_TRUE(again.refactor_from(rewritten, a));
  expect_same_solves(again, SparseLu<T>(a), "rewritten symbolic");
  EXPECT_FALSE(again.refactor_from(rewritten, CscMatrix<T>(middle_drift_system<T>(4.0, 1.0))));
  expect_refactor_contract(sym, a, "drift at column 2");
}

/// Four unknowns; column 2's pivot candidates are first touched in the
/// order row 3 (its own entry `d3`), row 2 (step 0's update, -0.9 * 0.7 /
/// 4.1), so the pinned pivot row 2 has rank 1 among them.
template <typename T>
TripletMatrix<T> ranked_candidates_system(double d3) {
  TripletMatrix<T> t(4, 4);
  t.add(0, 0, val<T>(4.1));
  t.add(2, 0, val<T>(0.7));
  t.add(1, 1, val<T>(3.3));
  t.add(0, 2, val<T>(0.9));
  t.add(3, 2, val<T>(d3));
  t.add(2, 3, val<T>(1.5));
  t.add(3, 3, val<T>(2.9));
  return t;
}

TYPED_TEST(StructuralReplayTest, TiedCandidatesKeepTheAnalysisScanOrder) {
  using T = TypeParam;
  // The scan keeps the first of equal magnitudes. Row 3 comes first, so at
  // a tie it wins and the pinned row 2 has drifted: the replay must scan in
  // the analysis's order, not pinned pivot first.
  SparseLuSymbolic<T> sym;
  const SparseLu<T> analyzed(CscMatrix<T>(ranked_candidates_system<T>(0.1)), sym);
  const double tie = (0.7 / 4.1) * 0.9;  // |U| of row 2 after step 0's update
  const CscMatrix<T> a(ranked_candidates_system<T>(tie));
  SparseLu<T> strict;
  EXPECT_FALSE(strict.refactor_from(sym, a));
  expect_refactor_contract(sym, a, "tie");
  expect_refactor_contract(sym, CscMatrix<T>(ranked_candidates_system<T>(-tie)), "tie, sign");
  expect_refactor_contract(sym, CscMatrix<T>(ranked_candidates_system<T>(0.12)), "no tie");
}

TYPED_TEST(StructuralReplayTest, SingularPivotAtAMiddleColumn) {
  using T = TypeParam;
  SparseLuSymbolic<T> sym;
  const SparseLu<T> analyzed(CscMatrix<T>(middle_drift_system<T>(4.0, 1.0)), sym);
  // Both candidates of column 2 vanish: strict refuses, repair and the
  // analysis both throw.
  const CscMatrix<T> singular(middle_drift_system<T>(0.0, 0.0));
  SparseLu<T> strict;
  EXPECT_FALSE(strict.refactor_from(sym, singular));
  SparseLuSymbolic<T> rewritten = sym;
  SparseLu<T> lu;
  EXPECT_THROW(lu.refactor_from(sym, singular, 0.0, &rewritten), SingularMatrixError);
  EXPECT_THROW(SparseLu<T>{singular}, SingularMatrixError);
  expect_refactor_contract(sym, singular, "singular column 2");
  // Only the pinned pivot vanishes: the scan picks row 3, a drift.
  expect_refactor_contract(sym, CscMatrix<T>(middle_drift_system<T>(0.0, 1.0)),
                           "pinned pivot zero");
}

// The active mixer's transient-mode Jacobian (the matrix a paper_mixer
// Newton iteration factors) and, for the complex case, its AC matrix.
TripletMatrix<double> mixer_transient_jacobian() {
  core::MixerConfig cfg;
  cfg.mode = core::MixerMode::kActive;
  auto mixer = core::build_transistor_mixer(cfg);
  const spice::Solution op = spice::dc_operating_point(mixer->circuit);
  spice::StampParams sp;
  sp.mode = spice::AnalysisMode::kTransient;
  sp.dt = 1.0 / (cfg.f_lo_hz * 20.0);
  sp.integrator = spice::Integrator::kTrapezoidal;
  const std::size_t n = static_cast<std::size_t>(mixer->circuit.layout().size());
  TripletMatrix<double> g(n, n);
  VectorD b(n, 0.0);
  spice::assemble_real(mixer->circuit, op, sp, 1e-12, g, b);
  return g;
}

TripletMatrix<Cplx> mixer_ac_matrix() {
  core::MixerConfig cfg;
  cfg.mode = core::MixerMode::kActive;
  auto mixer = core::build_transistor_mixer(cfg);
  const spice::Solution op = spice::dc_operating_point(mixer->circuit);
  const std::size_t n = static_cast<std::size_t>(mixer->circuit.layout().size());
  TripletMatrix<Cplx> y(n, n);
  VectorC b(n, Cplx{});
  spice::assemble_ac(mixer->circuit, op, kTwoPi * 2.4e9, 1e-12, y, b);
  return y;
}

/// The BM_SparseLuSolve generator (bench/bench_engine_perf.cpp): a dominant
/// diagonal plus four random entries per row, which fill in.
template <typename T>
TripletMatrix<T> bench_generator(std::size_t n) {
  Rng rng(2);
  TripletMatrix<T> t(n, n);
  auto draw = [&](double scale) {
    if constexpr (std::is_same_v<T, Cplx>) {
      const double re = rng.normal() * scale;
      return T{re, rng.normal() * scale};
    } else {
      return T(rng.normal() * scale);
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, val<T>(6.0 + rng.uniform()));
    for (int k = 0; k < 4; ++k) t.add(i, rng.uniform_index(n), draw(0.3));
  }
  return t;
}

/// `cases` value mutations of `base`: each entry is, with probability 1/6,
/// zeroed, negated, rescaled by a power of two or a random factor, or
/// replaced by another entry's value (ties in the pivot scan). Every case
/// must satisfy the refactor contract against the symbolic analyzed on the
/// base values, and every tenth case against one analyzed on the previous
/// case's values.
template <typename T>
void fuzz_replay(const TripletMatrix<T>& base, int cases, std::uint64_t seed, const char* what) {
  const CscMatrix<T> a0(base);
  SparseLuSymbolic<T> base_sym;
  const SparseLu<T> analyzed(a0, base_sym);
  Rng rng(seed);
  CscMatrix<T> prev = a0;
  for (int c = 0; c < cases; ++c) {
    CscMatrix<T> a = a0;
    std::vector<T>& v = a.mutable_values();
    for (std::size_t k = 0; k < v.size(); ++k) {
      switch (rng.uniform_index(12)) {
        case 0: v[k] = T{}; break;
        case 1: v[k] = -v[k]; break;
        case 2: v[k] *= std::ldexp(1.0, static_cast<int>(rng.uniform_index(41)) - 20); break;
        case 3: v[k] *= rng.uniform(0.01, 100.0); break;
        case 4: v[k] = v[rng.uniform_index(v.size())]; break;
        default: break;
      }
    }
    const std::string where = std::string(what) + " case " + std::to_string(c);
    expect_refactor_contract(base_sym, a, where);
    if (c % 10 == 9) {
      try {
        SparseLuSymbolic<T> prev_sym;
        const SparseLu<T> prev_lu(prev, prev_sym);
        expect_refactor_contract(prev_sym, a, where + " vs previous");
      } catch (const SingularMatrixError&) {
      }
    }
    if (::testing::Test::HasFailure()) return;  // one case's report is enough
    prev = std::move(a);
  }
}

TEST(StructuralReplayFuzz, MixerTransientJacobian) {
  fuzz_replay(mixer_transient_jacobian(), 500, 0x5EED01, "mixer transient");
}

TEST(StructuralReplayFuzz, MixerAcMatrix) {
  fuzz_replay(mixer_ac_matrix(), 500, 0x5EED02, "mixer ac");
}

TEST(StructuralReplayFuzz, BenchGeneratorReal) {
  fuzz_replay(bench_generator<double>(64), 500, 0x5EED03, "generator real");
}

TEST(StructuralReplayFuzz, BenchGeneratorComplex) {
  fuzz_replay(bench_generator<Cplx>(64), 500, 0x5EED04, "generator complex");
}

TEST(SparseLuSolveTest, SolveIntoBufferMatchesSolve) {
  Rng rng(5);
  const CscMatrix<double> a(random_system(rng, 12, 30));
  const SparseLu<double> lu(a);
  const auto b = rhs(rng, 12);
  std::vector<double> x(3, 7.0);  // wrong size: solve() resizes it
  lu.solve(b, x);
  EXPECT_TRUE(same_bits(x, lu.solve(b)));
  std::vector<double> same = b;
  EXPECT_THROW(lu.solve(same, same), std::invalid_argument);
}

}  // namespace
}  // namespace rfmix::mathx
