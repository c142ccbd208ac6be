#pragma once
// Adaptive-shift SS-HOPM.
//
// The paper (Section II) lists the choice of shift as an open problem: a
// fixed alpha large enough for guaranteed convergence (suggest_shift) makes
// the iteration crawl -- the convergence rate degrades as alpha grows --
// while alpha = 0 is fast but can fail to converge. Kolda & Mayo's
// follow-up work (GEAP) resolves this by *adapting* the shift each
// iteration to the local curvature; this header implements that scheme for
// Z-eigenpairs:
//
//   H(x_k) = (m - 1) * A x_k^{m-2}          (curvature of f up to factor m)
//   alpha_k = max(0, tau - lambda_min(H(x_k)))
//
// so the shifted update is just convex *at the current iterate* (plus a
// margin tau) rather than globally. Each iteration pays one ttsv2 and a
// small Jacobi eigensolve; in exchange the iteration count typically drops
// by an order of magnitude versus the conservative fixed shift, while
// keeping the monotone-convergence property. (For minima, the mirrored
// scheme uses lambda_max and a negative shift.)

#include "te/kernels/general.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/util/linalg.hpp"

namespace te::sshopm {

/// Controls for the adaptive iteration.
struct AdaptiveOptions {
  double tau = 1e-2;        ///< convexity margin added to -lambda_min(H)
  int max_iterations = 500;
  double tolerance = 1e-10;  ///< |lambda_{k+1} - lambda_k| bound
  bool find_minima = false;  ///< mirrored scheme (concave + negative shift)
};

/// Outcome: the fixed-shift Result (same failure contract; no trace is
/// kept) plus the shift statistics.
template <Real T>
struct AdaptiveResult : Result<T> {
  double final_alpha = 0;  ///< shift used on the last iteration
  double max_alpha = 0;    ///< largest shift used anywhere
};

/// Adaptive-shift SS-HOPM from one start: the detail::Run state machine
/// with alpha and its sign chosen afresh every iteration. The tensor must
/// have order >= 2 (ttsv2 is needed for the curvature estimate).
template <Real T>
[[nodiscard]] AdaptiveResult<T> solve_adaptive(const SymmetricTensor<T>& a,
                                               std::span<const T> x0,
                                               const AdaptiveOptions& opt,
                                               OpCounts* ops = nullptr) {
  const int n = a.dim();
  const int m = a.order();
  TE_REQUIRE(m >= 2, "adaptive shift needs order >= 2");
  TE_REQUIRE(static_cast<int>(x0.size()) == n, "start length mismatch");
  TE_REQUIRE(opt.max_iterations >= 1, "max_iterations must be positive");

  kernels::BoundKernels<T> k(a, kernels::Tier::kGeneral);

  AdaptiveResult<T> r;
  detail::Run<T> run(r, opt.tolerance, nullptr);
  if (!run.start(x0)) return r;
  const std::span<const T> x(r.x.data(), r.x.size());
  if (!run.accept_first(k.ttsv0(x, ops))) return r;
  std::vector<T> y(static_cast<std::size_t>(n));

  for (int it = 0; it < opt.max_iterations; ++it) {
    // Local curvature: H = (m - 1) A x^{m-2}.
    Matrix<T> h = kernels::ttsv2_general(a, x, ops);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) h(i, j) *= static_cast<T>(m - 1);
    }
    const auto eig = jacobi_eigen(h);
    double alpha;
    if (!opt.find_minima) {
      alpha = std::max(0.0, opt.tau - static_cast<double>(eig.values.front()));
    } else {
      alpha =
          std::min(0.0, -opt.tau - static_cast<double>(eig.values.back()));
    }
    r.final_alpha = alpha;
    r.max_alpha = std::max(r.max_alpha, std::abs(alpha));

    k.ttsv1(x, std::span<T>(y.data(), y.size()), ops);
    if (!run.update(std::span<const T>(y.data(), y.size()),
                    static_cast<T>(alpha), alpha >= 0 ? T(1) : T(-1)) ||
        !run.accept(k.ttsv0(x, ops))) {
      return r;
    }
  }
  run.finish();
  return r;
}

}  // namespace te::sshopm
