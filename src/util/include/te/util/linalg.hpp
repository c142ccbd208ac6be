#pragma once
// Small dense linear algebra.
//
// Everything in this library operates on *small* vectors and matrices
// (n <= ~16): SS-HOPM iterates live in R^n for tensor dimension n, the
// DW-MRI least-squares fit has tens of unknowns, and the spectral
// classification of an eigenpair needs the eigenvalues of an (n-1)x(n-1)
// projected Hessian. So the routines here are simple, allocation-light,
// and favour clarity over asymptotics: cyclic Jacobi for symmetric
// eigenvalues, Cholesky for SPD solves.

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "te/util/assert.hpp"
#include "te/util/types.hpp"

namespace te {

// ---------------------------------------------------------------------------
// Vector kernels.
// ---------------------------------------------------------------------------

/// Euclidean inner product.
template <Real T>
[[nodiscard]] T dot(std::span<const T> x, std::span<const T> y) {
  TE_ASSERT(x.size() == y.size());
  T s = T(0);
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

/// Euclidean norm.
template <Real T>
[[nodiscard]] T nrm2(std::span<const T> x) {
  return std::sqrt(dot(x, x));
}

/// y += a * x.
template <Real T>
void axpy(T a, std::span<const T> x, std::span<T> y) {
  TE_ASSERT(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

/// x *= a.
template <Real T>
void scal(T a, std::span<T> x) {
  for (auto& v : x) v *= a;
}

/// Normalize x to unit Euclidean norm unless that is impossible: returns
/// the original norm, or T(0) when ||x|| is zero or non-finite (zero
/// vector, NaN/Inf entries, overflow), leaving x untouched in that case.
/// The non-throwing primitive behind iterative solvers that must report
/// degenerate iterates as a failed Result instead of unwinding out of a
/// worker thread.
template <Real T>
[[nodiscard]] T try_normalize(std::span<T> x) {
  const T n = nrm2(std::span<const T>(x.data(), x.size()));
  if (!(n > T(0)) || !std::isfinite(static_cast<double>(n))) return T(0);
  scal(T(1) / n, x);
  return n;
}

/// Normalize x to unit Euclidean norm; returns the original norm.
/// Precondition: ||x|| > 0.
template <Real T>
T normalize(std::span<T> x) {
  const T n = try_normalize(x);
  TE_REQUIRE(n > T(0), "cannot normalize the zero vector");
  return n;
}

/// ||x - y||_2.
template <Real T>
[[nodiscard]] T distance(std::span<const T> x, std::span<const T> y) {
  TE_ASSERT(x.size() == y.size());
  T s = T(0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const T d = x[i] - y[i];
    s += d * d;
  }
  return std::sqrt(s);
}

/// Angle in radians between two nonzero vectors, clamped into [0, pi].
template <Real T>
[[nodiscard]] T angle_between(std::span<const T> x, std::span<const T> y) {
  const T c = dot(x, y) / (nrm2(x) * nrm2(y));
  return std::acos(std::clamp(c, T(-1), T(1)));
}

// ---------------------------------------------------------------------------
// Dense square matrix (row-major), sized at runtime but intended small.
// ---------------------------------------------------------------------------

/// Minimal dense matrix; row-major storage.
template <Real T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, T fill = T(0))
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows) * cols, fill) {
    TE_REQUIRE(rows >= 0 && cols >= 0, "matrix dimensions must be nonnegative");
  }

  [[nodiscard]] static Matrix identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = T(1);
    return m;
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }

  T& operator()(int i, int j) {
    TE_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }
  const T& operator()(int i, int j) const {
    TE_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }

  [[nodiscard]] std::span<const T> data() const { return data_; }
  [[nodiscard]] std::span<T> data() { return data_; }

  /// y = A x.
  void multiply(std::span<const T> x, std::span<T> y) const {
    TE_REQUIRE(static_cast<int>(x.size()) == cols_ &&
                   static_cast<int>(y.size()) == rows_,
               "shape mismatch in Matrix::multiply");
    for (int i = 0; i < rows_; ++i) {
      T s = T(0);
      for (int j = 0; j < cols_; ++j) s += (*this)(i, j) * x[j];
      y[i] = s;
    }
  }

  /// C = A^T A (useful for normal equations).
  [[nodiscard]] Matrix gram() const {
    Matrix c(cols_, cols_);
    for (int i = 0; i < cols_; ++i)
      for (int j = i; j < cols_; ++j) {
        T s = T(0);
        for (int k = 0; k < rows_; ++k) s += (*this)(k, i) * (*this)(k, j);
        c(i, j) = s;
        c(j, i) = s;
      }
    return c;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<T> data_;
};

/// B = A^T.
template <Real T>
[[nodiscard]] Matrix<T> transpose(const Matrix<T>& a) {
  Matrix<T> b(a.cols(), a.rows());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) b(j, i) = a(i, j);
  return b;
}

/// C = A B.
template <Real T>
[[nodiscard]] Matrix<T> matmul(const Matrix<T>& a, const Matrix<T>& b) {
  TE_REQUIRE(a.cols() == b.rows(), "shape mismatch in matmul");
  Matrix<T> c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const T aik = a(i, k);
      if (aik == T(0)) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Factorizations / solvers.
// ---------------------------------------------------------------------------

/// QR factorization A = Q R with Q square orthogonal (rows x rows) and R
/// upper trapezoidal (rows x cols).
template <Real T>
struct QrFactors {
  Matrix<T> q;
  Matrix<T> r;
};

/// Householder QR of an arbitrary rows x cols matrix (cols >= rows is the
/// shape the QRST unfolding produces; tall matrices work too). The column
/// signs of Q are fixed by the convention diag(R) >= 0 -- or <= 0 when
/// `negate` is set, which is how the shifted-QRST iteration realizes the
/// concave branch x <- -normalize(A x^{m-1} + alpha x) of SS-HOPM.
template <Real T>
[[nodiscard]] QrFactors<T> qr_decompose(const Matrix<T>& a,
                                        bool negate = false) {
  const int rows = a.rows();
  const int cols = a.cols();
  TE_REQUIRE(rows >= 1 && cols >= 1, "qr_decompose needs a nonempty matrix");
  QrFactors<T> out;
  out.r = a;
  out.q = Matrix<T>::identity(rows);
  Matrix<T>& r = out.r;
  Matrix<T>& q = out.q;

  std::vector<T> v(static_cast<std::size_t>(rows));
  const int steps = std::min(rows - 1, cols);
  for (int k = 0; k < steps; ++k) {
    // Householder vector annihilating r(k+1..rows-1, k).
    T norm2 = T(0);
    for (int i = k; i < rows; ++i) norm2 += r(i, k) * r(i, k);
    const T norm = std::sqrt(norm2);
    if (!(norm > T(0))) continue;  // column already zero below the diagonal
    const T sgn = r(k, k) >= T(0) ? T(1) : T(-1);
    for (int i = k; i < rows; ++i) v[static_cast<std::size_t>(i)] = r(i, k);
    v[static_cast<std::size_t>(k)] += sgn * norm;
    T vtv = T(0);
    for (int i = k; i < rows; ++i) {
      vtv += v[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
    }
    if (!(vtv > T(0))) continue;
    // R <- H R with H = I - 2 v v^T / (v^T v).
    for (int j = k; j < cols; ++j) {
      T s = T(0);
      for (int i = k; i < rows; ++i) s += v[static_cast<std::size_t>(i)] * r(i, j);
      const T f = T(2) * s / vtv;
      for (int i = k; i < rows; ++i) r(i, j) -= f * v[static_cast<std::size_t>(i)];
    }
    // Q <- Q H (accumulating Q = H_0 H_1 ... from the right).
    for (int i = 0; i < rows; ++i) {
      T s = T(0);
      for (int j = k; j < rows; ++j) s += q(i, j) * v[static_cast<std::size_t>(j)];
      const T f = T(2) * s / vtv;
      for (int j = k; j < rows; ++j) q(i, j) -= f * v[static_cast<std::size_t>(j)];
    }
  }

  // Sign convention: diag(R) >= 0 (or <= 0 under `negate`). Flipping row j
  // of R together with column j of Q preserves A = Q R and orthogonality.
  const int diag = std::min(rows, cols);
  for (int j = 0; j < diag; ++j) {
    const bool flip = negate ? r(j, j) > T(0) : r(j, j) < T(0);
    if (!flip) continue;
    for (int c = j; c < cols; ++c) r(j, c) = -r(j, c);
    for (int i = 0; i < rows; ++i) q(i, j) = -q(i, j);
  }
  return out;
}

/// In-place Cholesky factorization of a symmetric positive-definite matrix
/// (lower triangle). Returns false if the matrix is not numerically SPD.
template <Real T>
[[nodiscard]] bool cholesky(Matrix<T>& a) {
  TE_REQUIRE(a.rows() == a.cols(), "cholesky needs a square matrix");
  const int n = a.rows();
  for (int j = 0; j < n; ++j) {
    T d = a(j, j);
    for (int k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (!(d > T(0))) return false;
    const T l = std::sqrt(d);
    a(j, j) = l;
    for (int i = j + 1; i < n; ++i) {
      T s = a(i, j);
      for (int k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / l;
    }
  }
  return true;
}

/// Solve L L^T x = b given the Cholesky factor from cholesky(); b is
/// overwritten with the solution.
template <Real T>
void cholesky_solve(const Matrix<T>& l, std::span<T> b) {
  const int n = l.rows();
  TE_REQUIRE(static_cast<int>(b.size()) == n, "rhs size mismatch");
  for (int i = 0; i < n; ++i) {  // forward: L y = b
    T s = b[i];
    for (int k = 0; k < i; ++k) s -= l(i, k) * b[k];
    b[i] = s / l(i, i);
  }
  for (int i = n - 1; i >= 0; --i) {  // backward: L^T x = y
    T s = b[i];
    for (int k = i + 1; k < n; ++k) s -= l(k, i) * b[k];
    b[i] = s / l(i, i);
  }
}

/// Cholesky factor of the regularized normal equations A^T A + ridge I,
/// in place in `l` (resized as needed). Returns false when they are not
/// numerically SPD.
template <Real T>
[[nodiscard]] bool normal_factor(const Matrix<T>& a, T ridge, Matrix<T>& l) {
  l = a.gram();
  for (int i = 0; i < l.rows(); ++i) l(i, i) += ridge;
  return cholesky(l);
}

/// rhs = A^T b, the right-hand side of the normal equations.
template <Real T>
void normal_rhs(const Matrix<T>& a, std::span<const T> b, std::span<T> rhs) {
  TE_REQUIRE(static_cast<int>(b.size()) == a.rows() &&
                 static_cast<int>(rhs.size()) == a.cols(),
             "rhs size mismatch");
  for (int j = 0; j < a.cols(); ++j) {
    T s = T(0);
    for (int i = 0; i < a.rows(); ++i) s += a(i, j) * b[i];
    rhs[j] = s;
  }
}

/// Minimum-norm least squares via regularized normal equations:
/// x = argmin ||A x - b||; suitable for the small, well-conditioned systems
/// in the DW-MRI fit. `ridge` adds ridge regularization (0 = none). A caller
/// solving many right-hand sides against one A may keep normal_factor()'s
/// factor and run normal_rhs() + cholesky_solve() per b: the same
/// operations in the same order, so the same bits.
template <Real T>
[[nodiscard]] std::vector<T> least_squares(const Matrix<T>& a,
                                           std::span<const T> b,
                                           T ridge = T(0)) {
  TE_REQUIRE(static_cast<int>(b.size()) == a.rows(), "rhs size mismatch");
  Matrix<T> l;
  const bool spd = normal_factor(a, ridge, l);
  std::vector<T> rhs(a.cols(), T(0));
  normal_rhs(a, b, std::span<T>(rhs));
  TE_REQUIRE(spd, "normal equations not SPD; increase ridge or add rows");
  cholesky_solve(l, std::span<T>(rhs));
  return rhs;
}

/// Solve A x = b for a general square A via LU with partial pivoting;
/// A is destroyed, b is overwritten with the solution. Returns false when
/// A is numerically singular (pivot below `tiny`).
template <Real T>
[[nodiscard]] bool lu_solve(Matrix<T>& a, std::span<T> b,
                            T tiny = T(1e-30)) {
  TE_REQUIRE(a.rows() == a.cols(), "lu_solve needs a square matrix");
  const int n = a.rows();
  TE_REQUIRE(static_cast<int>(b.size()) == n, "rhs size mismatch");
  std::vector<int> piv(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) piv[static_cast<std::size_t>(i)] = i;

  for (int k = 0; k < n; ++k) {
    // Partial pivot.
    int p = k;
    T best = std::abs(a(k, k));
    for (int i = k + 1; i < n; ++i) {
      if (std::abs(a(i, k)) > best) {
        best = std::abs(a(i, k));
        p = i;
      }
    }
    if (best <= tiny) return false;
    if (p != k) {
      for (int j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
      std::swap(b[static_cast<std::size_t>(k)], b[static_cast<std::size_t>(p)]);
    }
    // Eliminate below.
    for (int i = k + 1; i < n; ++i) {
      const T f = a(i, k) / a(k, k);
      a(i, k) = f;
      for (int j = k + 1; j < n; ++j) a(i, j) -= f * a(k, j);
      b[static_cast<std::size_t>(i)] -= f * b[static_cast<std::size_t>(k)];
    }
  }
  // Back substitution.
  for (int i = n - 1; i >= 0; --i) {
    T s = b[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < n; ++j) s -= a(i, j) * b[static_cast<std::size_t>(j)];
    b[static_cast<std::size_t>(i)] = s / a(i, i);
  }
  return true;
}

/// Result of a symmetric eigendecomposition: A = V diag(w) V^T, eigenvalues
/// ascending, eigenvectors in the columns of V.
template <Real T>
struct SymmetricEigen {
  std::vector<T> values;  ///< ascending
  Matrix<T> vectors;      ///< column j pairs with values[j]
};

/// Cyclic Jacobi eigensolver for a symmetric matrix. O(n^3) per sweep and
/// unconditionally stable -- ideal for the tiny matrices used here.
template <Real T>
[[nodiscard]] SymmetricEigen<T> jacobi_eigen(Matrix<T> a,
                                             int max_sweeps = 64,
                                             T tol = T(0)) {
  TE_REQUIRE(a.rows() == a.cols(), "jacobi_eigen needs a square matrix");
  const int n = a.rows();
  if (tol == T(0)) {
    tol = std::numeric_limits<T>::epsilon() * T(16);
  }
  Matrix<T> v = Matrix<T>::identity(n);

  auto off_norm = [&]() {
    T s = T(0);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j) s += a(i, j) * a(i, j);
    return std::sqrt(T(2) * s);
  };
  T a_norm = T(0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) a_norm += a(i, j) * a(i, j);
  a_norm = std::sqrt(a_norm);
  if (a_norm == T(0)) a_norm = T(1);

  for (int sweep = 0; sweep < max_sweeps && off_norm() > tol * a_norm;
       ++sweep) {
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        if (a(p, q) == T(0)) continue;
        // Rotation angle that annihilates a(p, q).
        const T theta = (a(q, q) - a(p, p)) / (T(2) * a(p, q));
        const T t = (theta >= T(0) ? T(1) : T(-1)) /
                    (std::abs(theta) + std::sqrt(theta * theta + T(1)));
        const T c = T(1) / std::sqrt(t * t + T(1));
        const T s = t * c;
        // Apply the rotation to A on both sides.
        for (int k = 0; k < n; ++k) {
          const T akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (int k = 0; k < n; ++k) {
          const T apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        // Accumulate the eigenvector rotation.
        for (int k = 0; k < n; ++k) {
          const T vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs ascending.
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(),
            [&](int i, int j) { return a(i, i) < a(j, j); });

  SymmetricEigen<T> out;
  out.values.resize(n);
  out.vectors = Matrix<T>(n, n);
  for (int j = 0; j < n; ++j) {
    out.values[j] = a(perm[j], perm[j]);
    for (int i = 0; i < n; ++i) out.vectors(i, j) = v(i, perm[j]);
  }
  return out;
}

}  // namespace te
