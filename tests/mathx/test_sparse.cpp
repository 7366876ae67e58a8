#include "mathx/sparse.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "mathx/lu.hpp"
#include "mathx/rng.hpp"

namespace rfmix::mathx {
namespace {

TEST(Triplet, DuplicatesMergeInCsc) {
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.0);
  t.add(1, 1, 4.0);
  const CscMatrix<double> csc(t);
  EXPECT_EQ(csc.nnz(), 2u);
  const MatrixD d = csc.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 4.0);
}

TEST(Triplet, DuplicatesMergeBehindAFullerColumn) {
  // Column 1's duplicate sits behind three column-0 entries: it must still
  // become one entry holding the sum, not two entries of which to_dense()
  // keeps the last.
  TripletMatrix<double> t(3, 3);
  t.add(0, 0, 1.0);
  t.add(1, 0, 1.0);
  t.add(2, 0, 1.0);
  t.add(1, 1, 2.0);
  t.add(1, 1, 3.0);
  t.add(2, 2, 1.0);
  const CscMatrix<double> csc(t);
  EXPECT_EQ(csc.nnz(), 5u);
  EXPECT_DOUBLE_EQ(csc.to_dense()(1, 1), 5.0);
}

TEST(Triplet, CscHoldsOneEntryPerDistinctPosition) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.uniform_index(30);
    TripletMatrix<double> t(n, n);
    std::set<std::pair<std::size_t, std::size_t>> distinct;
    for (std::size_t k = 0, m = rng.uniform_index(8 * n); k < m; ++k) {
      const std::size_t r = rng.uniform_index(n), c = rng.uniform_index(n / 2 + 1);
      t.add(r, c, static_cast<double>(rng.uniform_index(9)) - 4.0);  // exact sums
      distinct.emplace(r, c);
    }
    const CscMatrix<double> csc(t);
    EXPECT_EQ(csc.nnz(), distinct.size()) << "trial " << trial;
    const MatrixD want = t.to_dense();
    const MatrixD got = csc.to_dense();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(got(i, j), want(i, j)) << i << "," << j;
  }
}

TEST(Triplet, KeepsStructuralZeros) {
  // Regression: add() used to silently drop exact-zero values, which let
  // the sparsity pattern depend on the numerical values being stamped — a
  // device whose conductance passes through 0.0 during a Newton iteration
  // would change the matrix structure between factorizations.
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 0.0);  // structural zero: must stay in the pattern
  t.add(1, 1, 2.0);
  EXPECT_EQ(t.entry_count(), 3u);
  const CscMatrix<double> csc(t);
  EXPECT_EQ(csc.nnz(), 3u);
  const MatrixD d = csc.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 2.0);
}

TEST(Triplet, ZeroEntriesStillMergeWithDuplicates) {
  // A zero followed by a value at the same position must sum, exactly as
  // two nonzero duplicates would.
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 0.0);
  t.add(0, 0, 5.0);
  t.add(1, 1, 1.0);
  const CscMatrix<double> csc(t);
  const MatrixD d = csc.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 0), 5.0);
}

TEST(Triplet, OutOfRangeThrows) {
  TripletMatrix<double> t(2, 2);
  EXPECT_THROW(t.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(t.add(0, 5, 1.0), std::out_of_range);
}

TEST(Csc, MultiplyMatchesDense) {
  TripletMatrix<double> t(3, 3);
  t.add(0, 0, 2.0);
  t.add(1, 2, -1.0);
  t.add(2, 1, 5.0);
  t.add(2, 2, 1.0);
  const CscMatrix<double> csc(t);
  const VectorD x{1.0, 2.0, 3.0};
  const VectorD y = csc.multiply(x);
  const VectorD y_ref = t.to_dense() * x;
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-14);
}

TEST(SparseLu, SolvesSmallSystem) {
  TripletMatrix<double> t(3, 3);
  t.add(0, 0, 4.0);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 3.0);
  t.add(1, 2, 1.0);
  t.add(2, 1, 1.0);
  t.add(2, 2, 2.0);
  const CscMatrix<double> a(t);
  const SparseLu<double> lu{a};
  const VectorD b{1.0, 2.0, 3.0};
  const VectorD x = lu.solve(b);
  const VectorD r = a.multiply(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(r[i], b[i], 1e-12);
}

TEST(SparseLu, RequiresPivotingPattern) {
  // Zero diagonal head forces row exchange.
  TripletMatrix<double> t(2, 2);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  const CscMatrix<double> a(t);
  const SparseLu<double> lu{a};
  const VectorD x = lu.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(SparseLu, SingularThrows) {
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 0, 2.0);  // column 1 empty -> singular
  EXPECT_THROW(SparseLu<double>{CscMatrix<double>(t)}, SingularMatrixError);
}

// Property: sparse solve matches dense solve on random sparse systems.
class SparseVsDense : public ::testing::TestWithParam<int> {};

TEST_P(SparseVsDense, RealSystems) {
  Rng rng(100u + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 5 + static_cast<std::size_t>(GetParam()) * 3;
  TripletMatrix<double> t(n, n);
  // Random sparse pattern with guaranteed nonsingular diagonal.
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 3.0 + rng.uniform());
    for (int k = 0; k < 3; ++k) {
      const std::size_t j = rng.uniform_index(n);
      t.add(i, j, rng.normal() * 0.4);
    }
  }
  VectorD b(n);
  for (auto& v : b) v = rng.normal();

  const CscMatrix<double> a(t);
  const VectorD x_sparse = SparseLu<double>(a).solve(b);
  const VectorD x_dense = lu_solve(t.to_dense(), b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x_sparse[i], x_dense[i], 1e-8);
}

TEST_P(SparseVsDense, ComplexSystems) {
  Rng rng(200u + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 4 + static_cast<std::size_t>(GetParam()) * 2;
  TripletMatrix<std::complex<double>> t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, {3.0 + rng.uniform(), rng.normal()});
    for (int k = 0; k < 2; ++k) {
      const std::size_t j = rng.uniform_index(n);
      t.add(i, j, {rng.normal() * 0.3, rng.normal() * 0.3});
    }
  }
  VectorC b(n);
  for (auto& v : b) v = {rng.normal(), rng.normal()};

  const CscMatrix<std::complex<double>> a(t);
  const VectorC x_sparse = SparseLu<std::complex<double>>(a).solve(b);
  const VectorC x_dense = lu_solve(t.to_dense(), b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(x_sparse[i] - x_dense[i]), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseVsDense, ::testing::Range(0, 10));

}  // namespace
}  // namespace rfmix::mathx
