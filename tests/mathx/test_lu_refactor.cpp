// Analyze-once/refactor-per-step contract of the sparse LU (docs/solver.md):
// a successful refactor_from() must be byte-identical to a fresh analyzing
// factorization of the same matrix, and any disagreement — pattern change,
// pivot drift, singular pinned pivot — must abort the refactor so the caller
// can re-analyze.
#include "mathx/sparse.hpp"
#include "mathx/sweep_lu.hpp"

#include <complex>
#include <cstring>
#include <gtest/gtest.h>

#include "mathx/lu.hpp"
#include "mathx/rng.hpp"

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
    const bool diag = t.row_indices()[k] == t.col_indices()[k];
    out.add(t.row_indices()[k], t.col_indices()[k],
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
    reordered.add(t.row_indices()[k], t.col_indices()[k], t.values()[k]);
  EXPECT_FALSE(map.matches(reordered));
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
        t.add(t0.row_indices()[k], t0.col_indices()[k],
              t0.row_indices()[k] == t0.col_indices()[k] ? rng.uniform(0.5, 1.5)
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

}  // namespace
}  // namespace rfmix::mathx
