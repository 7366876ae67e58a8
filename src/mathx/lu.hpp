// Dense LU factorization with partial pivoting and solve, templated over
// real/complex scalars. This is the workhorse linear solver for MNA
// systems produced by the circuit simulator.
#pragma once

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "mathx/matrix.hpp"

namespace rfmix::mathx {

/// Thrown when a factorization encounters a (numerically) singular matrix.
/// In circuit terms this usually means a floating node or a voltage-source
/// loop; the message carries the pivot index to aid netlist debugging.
class SingularMatrixError : public std::runtime_error {
 public:
  explicit SingularMatrixError(std::size_t pivot)
      : std::runtime_error("singular matrix at pivot " + std::to_string(pivot)),
        pivot_(pivot) {}
  std::size_t pivot() const { return pivot_; }

 private:
  std::size_t pivot_;
};

template <typename T>
class LuFactorization {
 public:
  /// Factor `a` in place (a copy is taken). Throws SingularMatrixError if a
  /// pivot column has no nonzero entry: a pivot must be nonzero.
  explicit LuFactorization(Matrix<T> a)
      : lu_(std::move(a)), perm_(lu_.rows()) {
    if (lu_.rows() != lu_.cols()) throw std::invalid_argument("LU requires square matrix");
    const std::size_t n = lu_.rows();
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
    for (std::size_t k = 0; k < n; ++k) {
      // Partial pivoting: largest magnitude in column k at/below diagonal.
      std::size_t piv = k;
      double best = std::abs(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double mag = std::abs(lu_(i, k));
        if (mag > best) {
          best = mag;
          piv = i;
        }
      }
      if (!(best > 0.0)) throw SingularMatrixError(k);
      if (piv != k) {
        std::swap(perm_[k], perm_[piv]);
        for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
        sign_flips_ ^= 1;
      }
      const T pivot = lu_(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const T m = lu_(i, k) / pivot;
        lu_(i, k) = m;
        if (m == T{}) continue;
        for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= m * lu_(k, j);
      }
    }
  }

  std::size_t size() const { return lu_.rows(); }

  /// Solve A x = b.
  std::vector<T> solve(const std::vector<T>& b) const {
    const std::size_t n = size();
    if (b.size() != n) throw std::invalid_argument("LU solve rhs size mismatch");
    std::vector<T> x(n);
    // Apply permutation, forward substitution (L has unit diagonal).
    for (std::size_t i = 0; i < n; ++i) {
      T acc = b[perm_[i]];
      for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
      x[i] = acc;
    }
    // Back substitution.
    for (std::size_t ii = n; ii-- > 0;) {
      T acc = x[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
      x[ii] = acc / lu_(ii, ii);
    }
    return x;
  }

  /// Solve A^T x = b (needed by adjoint noise analysis).
  std::vector<T> solve_transposed(const std::vector<T>& b) const {
    const std::size_t n = size();
    if (b.size() != n) throw std::invalid_argument("LU solve rhs size mismatch");
    // A = P^T L U  =>  A^T = U^T L^T P. Solve U^T y = b, then L^T z = y,
    // then x = P^T z (i.e. x[perm[i]] = z[i]).
    std::vector<T> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      T acc = b[i];
      for (std::size_t j = 0; j < i; ++j) acc -= lu_(j, i) * y[j];
      y[i] = acc / lu_(i, i);
    }
    std::vector<T> z(n);
    for (std::size_t ii = n; ii-- > 0;) {
      T acc = y[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(j, ii) * z[j];
      z[ii] = acc;
    }
    std::vector<T> x(n);
    for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = z[i];
    return x;
  }

  /// Determinant (product of U diagonal with permutation sign).
  T determinant() const {
    T d = sign_flips_ ? T{-1} : T{1};
    for (std::size_t i = 0; i < size(); ++i) d *= lu_(i, i);
    return d;
  }

 private:
  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  int sign_flips_ = 0;
};

/// One-shot convenience: solve A x = b.
template <typename T>
std::vector<T> lu_solve(const Matrix<T>& a, const std::vector<T>& b) {
  return LuFactorization<T>(a).solve(b);
}

}  // namespace rfmix::mathx
