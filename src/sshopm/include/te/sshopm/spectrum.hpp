#pragma once
// Multi-start eigenpair search and eigenpair classification.
//
// SS-HOPM converges to different eigenpairs from different starts (unlike
// the matrix power method). The paper's application runs 128 random starts
// per tensor and keeps the local maxima -- those are the nerve-fiber
// directions. This header provides:
//
//   * find_eigenpairs: run SS-HOPM from a set of starts, deduplicate the
//     converged results into distinct eigenpairs with basin counts;
//   * classify: decide local-max / local-min / saddle via the projected
//     Hessian (m-1) A x^{m-2} - lambda I restricted to the tangent space
//     x-perp (Kolda & Mayo's characterization), computed with the ttsv2
//     kernel and the Jacobi eigensolver.

#include <algorithm>
#include <vector>

#include "te/decomp/qrst.hpp"
#include "te/kernels/general.hpp"
#include "te/sshopm/multi.hpp"
#include "te/sshopm/newton.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/util/linalg.hpp"

namespace te::sshopm {

/// Second-order character of an eigenpair as a critical point of
/// f(x) = A x^m on the unit sphere.
enum class SpectralType {
  kLocalMax,
  kLocalMin,
  kSaddle,
  kUnknown,  ///< projected Hessian numerically indefinite-degenerate
};

[[nodiscard]] constexpr const char* spectral_type_name(SpectralType t) {
  switch (t) {
    case SpectralType::kLocalMax:
      return "max";
    case SpectralType::kLocalMin:
      return "min";
    case SpectralType::kSaddle:
      return "saddle";
    case SpectralType::kUnknown:
      return "unknown";
  }
  return "?";
}

/// A deduplicated eigenpair with provenance statistics.
template <Real T>
struct Eigenpair {
  T lambda = T(0);
  std::vector<T> x;
  int basin_count = 0;       ///< how many starts converged here
  T worst_residual = T(0);   ///< max ||A x^{m-1} - lambda x|| over the basin
  SpectralType type = SpectralType::kUnknown;
};

/// Classify an eigenpair via the projected Hessian. `tol` bounds the
/// eigenvalue magnitudes treated as zero (relative to the largest).
template <Real T>
[[nodiscard]] SpectralType classify(const SymmetricTensor<T>& a, T lambda,
                                    std::span<const T> x,
                                    double tol = 1e-4) {
  const int n = a.dim();
  if (n == 1) return SpectralType::kLocalMax;  // sphere is two points
  const int m = a.order();
  TE_REQUIRE(m >= 2, "classification needs order >= 2");

  // H = (m - 1) A x^{m-2} - lambda I.
  Matrix<T> h = kernels::ttsv2_general(a, x);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) h(i, j) *= static_cast<T>(m - 1);
    h(i, i) -= lambda;
  }

  // Orthonormal basis U of x-perp via the Householder reflector that maps
  // e_1 to -sign(x_1) x: columns 2..n of Q = I - 2 v v^T / (v^T v).
  std::vector<T> v(x.begin(), x.end());
  const T s = v[0] >= T(0) ? T(1) : T(-1);
  v[0] += s;  // v = x + sign(x_1) e_1  (x is unit)
  const T vtv = dot(std::span<const T>(v.data(), v.size()),
                    std::span<const T>(v.data(), v.size()));
  Matrix<T> u(n, n - 1);
  for (int j = 1; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const T qij = (i == j ? T(1) : T(0)) -
                    T(2) * v[static_cast<std::size_t>(i)] *
                        v[static_cast<std::size_t>(j)] / vtv;
      u(i, j - 1) = qij;
    }
  }

  // P = U^T H U, (n-1) x (n-1).
  Matrix<T> p(n - 1, n - 1);
  for (int c = 0; c < n - 1; ++c) {
    std::vector<T> hu(static_cast<std::size_t>(n), T(0));
    for (int i = 0; i < n; ++i) {
      T acc = T(0);
      for (int k = 0; k < n; ++k) acc += h(i, k) * u(k, c);
      hu[static_cast<std::size_t>(i)] = acc;
    }
    for (int r = 0; r < n - 1; ++r) {
      T acc = T(0);
      for (int k = 0; k < n; ++k) acc += u(k, r) * hu[static_cast<std::size_t>(k)];
      p(r, c) = acc;
    }
  }

  const auto eig = jacobi_eigen(p);
  const T lo = eig.values.front();
  const T hi = eig.values.back();
  const T scale = std::max(std::abs(lo), std::abs(hi));
  const T eps = static_cast<T>(tol) * std::max(scale, T(1));
  if (hi < -eps) return SpectralType::kLocalMax;
  if (lo > eps) return SpectralType::kLocalMin;
  if (lo < -eps && hi > eps) return SpectralType::kSaddle;
  return SpectralType::kUnknown;
}

/// Options for the multi-start sweep.
struct MultiStartOptions {
  Options inner;               ///< per-start SS-HOPM controls
  double cluster_lambda_tol = 1e-3;  ///< eigenvalues within this merge
  double cluster_vector_tol = 1e-2;  ///< and vectors within this (post sign)
  bool classify_pairs = true;
  bool keep_unconverged = false;
  /// Newton-polish each cluster representative to machine precision (the
  /// production pattern: cheap batched power iterations, then a handful of
  /// quadratic steps per *distinct* pair).
  bool refine_newton = false;
  /// Solver engine. kSshopm runs the multi-start power iteration above;
  /// kQrst runs the all-eigenpairs QRST backend (te::decomp) instead --
  /// it ignores `starts` and `inner`, recovers the complete
  /// spectrum of small shapes, and reports QRST harvest multiplicities as
  /// basin counts.
  enum class Engine { kSshopm, kQrst };
  Engine engine = Engine::kSshopm;
  decomp::QrstOptions qrst;  ///< controls for the kQrst engine
};

/// Deduplicate finished SS-HOPM runs (from any backend) into distinct
/// eigenpairs, classify, and sort by descending eigenvalue. For even m,
/// (lambda, x) and (lambda, -x) are the same pair; for odd m, (lambda, x)
/// pairs with (-lambda, -x). Unconverged runs are skipped unless
/// opt.keep_unconverged.
template <Real T>
[[nodiscard]] std::vector<Eigenpair<T>> cluster_results(
    const SymmetricTensor<T>& a, std::span<const Result<T>> runs,
    const MultiStartOptions& opt) {
  // Residuals on the unrolled kernel where the shape is registered, else
  // general: a fixed rule, so worst_residual never depends on a JIT or an
  // option. The two differ only within the derived forward-error bound
  // (DESIGN.md section 11), and clustering never reads the residual.
  const kernels::BoundKernels<T> k(
      a, kernels::find_unrolled<T>(a.order(), a.dim()) != nullptr
             ? kernels::Tier::kUnrolled
             : kernels::Tier::kGeneral);
  const bool even = a.order() % 2 == 0;

  std::vector<Eigenpair<T>> pairs;
  for (const auto& r : runs) {
    // Poisoned runs (degenerate iterate, NaN/Inf lambda) carry no usable
    // eigenpair even under keep_unconverged: their x may be zero or
    // non-finite, which would NaN every residual and cluster distance.
    if (r.failure == FailureReason::kDegenerateIterate ||
        r.failure == FailureReason::kNonFiniteLambda) {
      continue;
    }
    if (!r.converged && !opt.keep_unconverged) continue;
    const T res = eigen_residual(k, r.lambda,
                                 std::span<const T>(r.x.data(), r.x.size()));

    // Try to merge into an existing cluster.
    bool merged = false;
    for (auto& p : pairs) {
      // Candidate sign-normalized comparisons.
      const auto close_vec = [&](T sgn, T lam) {
        if (std::abs(static_cast<double>(lam - p.lambda)) >
            opt.cluster_lambda_tol)
          return false;
        double d = 0;
        for (std::size_t i = 0; i < r.x.size(); ++i) {
          const double e =
              static_cast<double>(sgn * r.x[i]) - static_cast<double>(p.x[i]);
          d += e * e;
        }
        return std::sqrt(d) <= opt.cluster_vector_tol;
      };
      const bool same =
          close_vec(T(1), r.lambda) ||
          (even ? close_vec(T(-1), r.lambda) : close_vec(T(-1), -r.lambda));
      if (same) {
        ++p.basin_count;
        p.worst_residual = std::max(p.worst_residual, res);
        merged = true;
        break;
      }
    }
    if (!merged) {
      Eigenpair<T> p;
      p.lambda = r.lambda;
      p.x.assign(r.x.begin(), r.x.end());
      p.basin_count = 1;
      p.worst_residual = res;
      pairs.push_back(std::move(p));
    }
  }

  if (opt.refine_newton) {
    for (auto& p : pairs) {
      auto refined = refine_eigenpair(
          a, p.lambda, std::span<const T>(p.x.data(), p.x.size()));
      if (refined.converged) {
        p.lambda = refined.lambda;
        p.x = std::move(refined.x);
        p.worst_residual = static_cast<T>(refined.residual);
      }
    }
  }
  if (opt.classify_pairs) {
    for (auto& p : pairs) {
      p.type = classify(a, p.lambda,
                        std::span<const T>(p.x.data(), p.x.size()));
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Eigenpair<T>& l, const Eigenpair<T>& r2) {
              return l.lambda > r2.lambda;
            });
  return pairs;
}

/// Run SS-HOPM from every start with the chosen kernel tier, then
/// deduplicate/classify via cluster_results.
template <Real T>
[[nodiscard]] std::vector<Eigenpair<T>> find_eigenpairs(
    const SymmetricTensor<T>& a, kernels::Tier tier,
    std::span<const std::vector<T>> starts, const MultiStartOptions& opt,
    const kernels::KernelTables<T>* tables = nullptr,
    OpCounts* ops = nullptr) {
  if (opt.engine == MultiStartOptions::Engine::kQrst) {
    // All-pairs mode: the QRST backend enumerates the spectrum directly;
    // only classification is shared with the SS-HOPM path. Already sorted
    // by descending eigenvalue.
    const decomp::QrstSpectrum<T> spec = decomp::qrst_spectrum(a, opt.qrst);
    std::vector<Eigenpair<T>> pairs;
    pairs.reserve(spec.pairs.size());
    for (const auto& qp : spec.pairs) {
      Eigenpair<T> p;
      p.lambda = qp.lambda;
      p.x = qp.x;
      p.basin_count = qp.multiplicity;
      p.worst_residual = qp.residual;
      if (opt.classify_pairs) {
        p.type = classify(a, p.lambda,
                          std::span<const T>(p.x.data(), p.x.size()));
      }
      pairs.push_back(std::move(p));
    }
    return pairs;
  }
  const kernels::BoundKernels<T> k(a, tier, tables);
  std::vector<Result<T>> runs(starts.size());
  solve_starts(k, starts, opt.inner, std::span<Result<T>>(runs), ops);
  return cluster_results(a, std::span<const Result<T>>(runs.data(),
                                                       runs.size()),
                         opt);
}

}  // namespace te::sshopm
