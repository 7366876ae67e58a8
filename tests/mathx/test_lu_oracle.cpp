// Byte-identity oracle for the sparse LU. Each case factors fixed-seed
// systems and folds the output bits of solve() and solve_transposed(), plus
// the symbolic's l_capacity()/u_capacity(), into one FNV-1a digest that is
// pinned below. The refactor tests compare the factorization with itself
// (replay vs analyze), so a change that reorders the
// elimination updates on both sides alike passes them; these pins fail on
// any changed bit of the factors, the pivot order or the symbolic update
// lists (the replay steps below run through those lists).
#include <complex>
#include <cstdint>
#include <gtest/gtest.h>
#include <type_traits>
#include <vector>

#include "mathx/rng.hpp"
#include "mathx/sparse.hpp"

namespace rfmix::mathx {
namespace {

using Cplx = std::complex<double>;

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  void count(std::size_t v) {
    const std::uint64_t w = v;
    bytes(&w, sizeof w);
  }
  template <typename T>
  void values(const std::vector<T>& v) {
    bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One draw of `f` for a real scalar, two (real, imaginary) for a complex.
template <typename T, typename F>
T draw(F&& f) {
  if constexpr (std::is_same_v<T, Cplx>) {
    const double re = f();
    return {re, f()};
  } else {
    return f();
  }
}

/// Entry sequence of `t` with every value redrawn: same pattern, new values.
template <typename T, typename Diag, typename Off>
TripletMatrix<T> revalue(const TripletMatrix<T>& t, Diag&& diag, Off&& off) {
  TripletMatrix<T> out(t.rows(), t.cols());
  for (std::size_t k = 0; k < t.entry_count(); ++k) {
    const std::size_t r = t.entries()[k].row, c = t.entries()[k].col;
    out.add(r, c, r == c ? draw<T>(diag) : draw<T>(off));
  }
  return out;
}

template <typename T>
void fold_solves(Fnv1a& h, const SparseLu<T>& lu, Rng& rng) {
  std::vector<T> b(lu.size());
  for (auto& v : b) v = draw<T>([&] { return rng.uniform(-1.0, 1.0); });
  h.values(lu.solve(b));
  h.values(lu.solve_transposed(b));
}

template <typename T>
void fold_symbolic(Fnv1a& h, const SparseLuSymbolic<T>& sym) {
  h.count(sym.size());
  h.count(sym.l_capacity());
  h.count(sym.u_capacity());
}

/// Analyze `t0`, then factor `steps` revalued copies as SolverSession does:
/// refactor against the symbolic, else analyze into the same object and
/// symbolic (rewriting it when a pivot drifts). Folds every factorization's
/// solves and every symbolic it leaves behind.
template <typename T, typename Diag, typename Off>
std::uint64_t digest(const TripletMatrix<T>& t0, int steps, Diag&& diag, Off&& off,
                     Rng& rng, int* fallbacks = nullptr) {
  Fnv1a h;
  SparseLuSymbolic<T> sym;
  SparseLu<T> lu(CscMatrix<T>(t0), sym);
  fold_symbolic(h, sym);
  fold_solves(h, lu, rng);
  for (int step = 0; step < steps; ++step) {
    const CscMatrix<T> a(revalue(t0, diag, off));
    if (!lu.refactor_from(sym, a)) {
      lu.analyze(a, &sym);
      if (fallbacks) ++*fallbacks;
    }
    fold_symbolic(h, sym);
    fold_solves(h, lu, rng);
  }
  return h.value();
}

/// Tridiagonal with a dominant diagonal: pivots stay on the diagonal and
/// L and U are bidiagonal (no fill).
template <typename T>
std::uint64_t no_fill_digest() {
  Rng rng(31);
  const std::size_t n = 2000;
  auto diag = [&] { return 4.0 + rng.uniform(); };
  auto off = [&] { return rng.uniform(-1.0, 1.0); };
  TripletMatrix<T> t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, draw<T>(diag));
    if (i > 0) t.add(i, i - 1, draw<T>(off));
    if (i + 1 < n) t.add(i, i + 1, draw<T>(off));
  }
  return digest(t, 3, diag, off, rng);
}

/// The BM_SparseLuSolve generator (bench/bench_engine_perf.cpp): a dominant
/// diagonal plus four random entries per row, which fill in.
template <typename T>
std::uint64_t fill_digest() {
  Rng rng(2);
  const std::size_t n = 512;
  auto diag = [&] { return 6.0 + rng.uniform(); };
  auto off = [&] { return rng.normal() * 0.3; };
  TripletMatrix<T> t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, draw<T>(diag));
    for (int k = 0; k < 4; ++k) t.add(i, rng.uniform_index(n), draw<T>(off));
  }
  return digest(t, 2, diag, off, rng);
}

/// 1,280 dense 8x8 blocks chained through one coupling pair each, like a
/// ladder of subcircuit instances: 10,240 unknowns. The weak diagonal lets
/// partial pivoting pick off-diagonal rows inside the blocks.
template <typename T>
std::uint64_t banded_block_digest() {
  Rng rng(7);
  const std::size_t block = 8, blocks = 1280, n = block * blocks;
  auto diag = [&] { return 1.0 + rng.uniform(); };
  auto off = [&] { return rng.uniform(-1.0, 1.0); };
  TripletMatrix<T> t(n, n);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t o = b * block;
    for (std::size_t r = 0; r < block; ++r)
      for (std::size_t c = 0; c < block; ++c)
        t.add(o + r, o + c, r == c ? draw<T>(diag) : draw<T>(off));
    if (b + 1 < blocks) {
      t.add(o + block - 1, o + block, draw<T>(off));
      t.add(o + block, o + block - 1, draw<T>(off));
    }
  }
  return digest(t, 2, diag, off, rng);
}

/// Weak diagonals make pivot drift common: most replays refuse mid-column
/// and the analysis that follows rewrites the symbolic. (Named for the
/// drift-repair mode it pinned first, whose bits the analysis reproduces.)
template <typename T>
std::uint64_t drift_repair_digest() {
  Rng rng(0xD21F7);
  const std::size_t n = 300;
  auto diag = [&] { return rng.uniform(0.5, 1.5); };
  auto off = [&] { return rng.uniform(-2.0, 2.0); };
  TripletMatrix<T> t(n, n);
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, draw<T>(diag));
  for (std::size_t k = 0; k < 2 * n; ++k)
    t.add(rng.uniform_index(n), rng.uniform_index(n), draw<T>(off));
  int fallbacks = 0;
  const std::uint64_t d = digest(t, 4, diag, off, rng, &fallbacks);
  EXPECT_GT(fallbacks, 0) << "the drift case never drifted";
  return d;
}

void expect_digest(const char* what, std::uint64_t got, std::uint64_t want) {
  EXPECT_EQ(got, want) << what << " digest " << std::hex << std::showbase << got;
}

TEST(SparseLuOracleTest, NoFillDiagonalDominant) {
  expect_digest("real", no_fill_digest<double>(), 0x8ac877a7d8717a7eull);
  expect_digest("complex", no_fill_digest<Cplx>(), 0x88c3e27f166a2040ull);
}

TEST(SparseLuOracleTest, RandomWithFill) {
  expect_digest("real", fill_digest<double>(), 0x3900c305e2563cb2ull);
  expect_digest("complex", fill_digest<Cplx>(), 0x31dead50338aee6dull);
}

TEST(SparseLuOracleTest, BandedBlock10k) {
  expect_digest("real", banded_block_digest<double>(), 0x2b3aafbce53b9790ull);
  expect_digest("complex", banded_block_digest<Cplx>(), 0xc8baf3eb851d90f1ull);
}

TEST(SparseLuOracleTest, DriftRepair) {
  expect_digest("real", drift_repair_digest<double>(), 0xb63f12170d073630ull);
  expect_digest("complex", drift_repair_digest<Cplx>(), 0x46a651252677a505ull);
}

}  // namespace
}  // namespace rfmix::mathx
