// Tests for the second-wave numerics: LU solves, Newton eigenpair
// refinement (quadratic polish of SS-HOPM output), dense tensor algebra
// (matricization / mode products / rotation), the spherical-harmonics
// correspondence of the DW-MRI pipeline, and the derived forward-error
// bound that lets extraction compute residuals on the unrolled tier.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "te/batch/batch.hpp"
#include "te/comb/index_class.hpp"
#include "te/dwmri/dataset.hpp"
#include "te/dwmri/fiber_model.hpp"
#include "te/dwmri/spherical_harmonics.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/kernels/general.hpp"
#include "te/sshopm/newton.hpp"
#include "te/sshopm/spectrum.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/tensor/dense_ops.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"
#include "te/util/sphere.hpp"

namespace te {
namespace {

// ---------------------------------------------------------------------------
// LU.
// ---------------------------------------------------------------------------

TEST(Lu, SolvesGeneralSystem) {
  Matrix<double> a(3, 3);
  a(0, 0) = 0;  // forces a pivot
  a(0, 1) = 2;
  a(0, 2) = 1;
  a(1, 0) = 1;
  a(1, 1) = -1;
  a(1, 2) = 0;
  a(2, 0) = 3;
  a(2, 1) = 0;
  a(2, 2) = -2;
  std::vector<double> x_true = {1.0, -2.0, 0.5};
  std::vector<double> b(3);
  Matrix<double> a0 = a;
  a0.multiply({x_true.data(), 3}, {b.data(), 3});
  ASSERT_TRUE(lu_solve(a, std::span<double>(b.data(), 3)));
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(b[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Lu, DetectsSingular) {
  Matrix<double> a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  std::vector<double> b = {1, 2};
  EXPECT_FALSE(lu_solve(a, std::span<double>(b.data(), 2)));
}

TEST(Lu, RandomSystemsRoundTrip) {
  CounterRng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 5;
    Matrix<double> a(n, n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        a(i, j) = rng.in(static_cast<std::uint64_t>(trial),
                         static_cast<std::uint64_t>(i * n + j), -1, 1);
      }
      a(i, i) += 3.0;  // keep well-conditioned
    }
    std::vector<double> x_true(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      x_true[static_cast<std::size_t>(i)] =
          rng.in(static_cast<std::uint64_t>(trial) + 100,
                 static_cast<std::uint64_t>(i), -2, 2);
    }
    std::vector<double> b(static_cast<std::size_t>(n));
    Matrix<double> a0 = a;
    a0.multiply({x_true.data(), x_true.size()}, {b.data(), b.size()});
    ASSERT_TRUE(lu_solve(a, std::span<double>(b.data(), b.size())));
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(b[static_cast<std::size_t>(i)],
                  x_true[static_cast<std::size_t>(i)], 1e-10);
    }
  }
}

// ---------------------------------------------------------------------------
// Newton refinement.
// ---------------------------------------------------------------------------

TEST(Newton, PolishesCoarseEigenpairToMachinePrecision) {
  CounterRng rng(5);
  const auto a = random_symmetric_tensor<double>(rng, 0, 4, 3);
  const auto x0 = random_sphere_vector<double>(rng, 1, 3);
  kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);

  // Coarse SS-HOPM run (loose tolerance, like single-precision output).
  sshopm::Options opt;
  opt.alpha = sshopm::suggest_shift(a);
  opt.tolerance = 1e-4;
  opt.max_iterations = 10000;
  const auto coarse = sshopm::solve(k, {x0.data(), x0.size()}, opt);
  ASSERT_TRUE(coarse.converged);
  const double coarse_res = sshopm::eigen_residual(
      k, coarse.lambda, {coarse.x.data(), coarse.x.size()});

  const auto refined = sshopm::refine_eigenpair(
      a, coarse.lambda, {coarse.x.data(), coarse.x.size()});
  EXPECT_TRUE(refined.converged);
  EXPECT_LT(refined.residual, 1e-12);
  EXPECT_LT(refined.residual, coarse_res);
  EXPECT_LE(refined.iterations, 6);
  // Stays on the same eigenpair.
  EXPECT_NEAR(refined.lambda, coarse.lambda, 1e-2);
  // And the refined x stays unit.
  EXPECT_NEAR(nrm2(std::span<const double>(refined.x.data(),
                                           refined.x.size())),
              1.0, 1e-10);
}

TEST(Newton, ExactPairIsFixedPoint) {
  std::vector<double> d = {0.6, 0.0, 0.8};
  const auto a = rank_one_tensor<double>(2.0, {d.data(), 3}, 4);
  const auto r = sshopm::refine_eigenpair(a, 2.0, {d.data(), 3});
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.residual, 1e-13);
  EXPECT_NEAR(r.lambda, 2.0, 1e-12);
  EXPECT_LE(r.iterations, 1);
}

TEST(Newton, RefinesFloatPrecisionGpuOutput) {
  // The production pattern: single-precision batched solve, double
  // refinement of the survivors.
  CounterRng rng(6);
  SymmetricTensor<double> ad(4, 3);
  SymmetricTensor<float> af(4, 3);
  for (offset_t r = 0; r < ad.num_unique(); ++r) {
    const double v = rng.in(0, static_cast<std::uint64_t>(r), -1, 1);
    ad.value(r) = v;
    af.value(r) = static_cast<float>(v);
  }
  kernels::BoundKernels<float> kf(af, kernels::Tier::kUnrolled);
  sshopm::Options opt;
  opt.alpha = sshopm::suggest_shift(af);
  opt.tolerance = 1e-6;
  opt.max_iterations = 5000;
  std::vector<float> x0 = {1, 0, 0};
  const auto coarse = sshopm::solve(kf, {x0.data(), 3}, opt);
  ASSERT_TRUE(coarse.converged);

  std::vector<double> xd(coarse.x.begin(), coarse.x.end());
  const auto refined = sshopm::refine_eigenpair(
      ad, static_cast<double>(coarse.lambda), {xd.data(), xd.size()});
  EXPECT_TRUE(refined.converged);
  EXPECT_LT(refined.residual, 1e-12);
}

TEST(Newton, MultiStartRefineFlagPolishesClusters) {
  CounterRng rng(15);
  const auto a = random_symmetric_tensor<double>(rng, 0, 4, 3);
  sshopm::MultiStartOptions opt;
  opt.inner.alpha = sshopm::suggest_shift(a);
  opt.inner.tolerance = 1e-5;  // deliberately coarse
  opt.inner.max_iterations = 10000;
  auto starts = random_sphere_batch<double>(rng, 1, 16, 3);

  opt.refine_newton = false;
  const auto coarse = sshopm::find_eigenpairs(
      a, kernels::Tier::kGeneral, {starts.data(), starts.size()}, opt);
  opt.refine_newton = true;
  const auto polished = sshopm::find_eigenpairs(
      a, kernels::Tier::kGeneral, {starts.data(), starts.size()}, opt);
  ASSERT_EQ(coarse.size(), polished.size());
  for (std::size_t i = 0; i < polished.size(); ++i) {
    EXPECT_LT(polished[i].worst_residual, 1e-11) << "pair " << i;
    EXPECT_LE(polished[i].worst_residual, coarse[i].worst_residual);
    EXPECT_NEAR(polished[i].lambda, coarse[i].lambda, 1e-3);
  }
}

// ---------------------------------------------------------------------------
// Dense tensor algebra.
// ---------------------------------------------------------------------------

TEST(DenseOps, MatricizeShapesAndEntries) {
  DenseTensor<double> a(3, 2);
  a({0, 1, 0}) = 5.0;
  a({1, 0, 1}) = 7.0;
  const auto m0 = matricize(a, 0);
  EXPECT_EQ(m0.rows(), 2);
  EXPECT_EQ(m0.cols(), 4);
  EXPECT_DOUBLE_EQ(m0(0, 2), 5.0);  // col index of (1, 0) = 1*2+0
  EXPECT_DOUBLE_EQ(m0(1, 1), 7.0);  // col index of (0, 1) = 0*2+1
  const auto m1 = matricize(a, 1);
  EXPECT_DOUBLE_EQ(m1(1, 0), 5.0);  // row = mode-1 index
}

TEST(DenseOps, TtvModeIndependentOnSymmetricTensors) {
  CounterRng rng(7);
  const auto a = random_symmetric_tensor<double>(rng, 0, 4, 3);
  const auto d = to_dense(a);
  const auto x = random_sphere_vector<double>(rng, 1, 3);
  const auto ref = ttv_mode(d, {x.data(), x.size()}, 0);
  for (int mode = 1; mode < 4; ++mode) {
    const auto other = ttv_mode(d, {x.data(), x.size()}, mode);
    for (std::size_t off = 0; off < ref.size(); ++off) {
      EXPECT_NEAR(ref.data()[off], other.data()[off], 1e-12)
          << "mode " << mode;
    }
  }
}

TEST(DenseOps, TtvChainEqualsSymmetricKernel) {
  CounterRng rng(8);
  const auto a = random_symmetric_tensor<double>(rng, 0, 3, 4);
  const auto x = random_sphere_vector<double>(rng, 1, 4);
  auto d = to_dense(a);
  d = ttv_mode(d, {x.data(), x.size()}, 2);
  d = ttv_mode(d, {x.data(), x.size()}, 1);
  // Now an order-1 tensor = A x^{m-1}.
  std::vector<double> y(4);
  kernels::ttsv1_general(a, {x.data(), x.size()}, {y.data(), 4});
  for (int i = 0; i < 4; ++i) {
    std::vector<index_t> idx = {static_cast<index_t>(i)};
    EXPECT_NEAR(d({idx.data(), 1}), y[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST(DenseOps, InnerProductMatchesFrobenius) {
  CounterRng rng(9);
  const auto a = random_symmetric_tensor<double>(rng, 0, 3, 3);
  const auto d = to_dense(a);
  EXPECT_NEAR(inner(d, d),
              std::pow(static_cast<double>(a.frobenius_norm()), 2), 1e-10);
}

TEST(DenseOps, RotationPreservesSymmetryAndNorm) {
  CounterRng rng(10);
  const auto a = random_symmetric_tensor<double>(rng, 0, 4, 3);
  // Orthogonal Q: rotation about z by 0.7 rad.
  Matrix<double> q(3, 3);
  const double c = std::cos(0.7), s = std::sin(0.7);
  q(0, 0) = c;
  q(0, 1) = -s;
  q(1, 0) = s;
  q(1, 1) = c;
  q(2, 2) = 1;
  const auto b = rotate(a, q);
  EXPECT_NEAR(b.frobenius_norm(), a.frobenius_norm(), 1e-9);
}

TEST(DenseOps, RotationPreservesZEigenvalues) {
  // The basis-independence property: if (lambda, x) is an eigenpair of A,
  // then (lambda, Q x) is an eigenpair of the rotated tensor.
  CounterRng rng(11);
  const auto a = random_symmetric_tensor<double>(rng, 0, 3, 3);
  kernels::BoundKernels<double> ka(a, kernels::Tier::kGeneral);
  sshopm::Options opt;
  opt.alpha = sshopm::suggest_shift(a);
  opt.tolerance = 1e-13;
  opt.max_iterations = 50000;
  const auto x0 = random_sphere_vector<double>(rng, 1, 3);
  const auto r = sshopm::solve(ka, {x0.data(), x0.size()}, opt);
  ASSERT_TRUE(r.converged);

  Matrix<double> q(3, 3);
  const double c = std::cos(1.1), s = std::sin(1.1);
  q(0, 0) = c;
  q(0, 2) = -s;
  q(1, 1) = 1;
  q(2, 0) = s;
  q(2, 2) = c;
  const auto b = rotate(a, q);
  std::vector<double> qx(3, 0.0);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      qx[static_cast<std::size_t>(i)] += q(i, j) * r.x[static_cast<std::size_t>(j)];
    }
  }
  kernels::BoundKernels<double> kb(b, kernels::Tier::kGeneral);
  EXPECT_LT(sshopm::eigen_residual(kb, r.lambda, {qx.data(), 3}), 1e-6);
}

// ---------------------------------------------------------------------------
// Spherical harmonics.
// ---------------------------------------------------------------------------

TEST(SphericalHarmonics, CoefficientCountsMatchTensorCounts) {
  // The dimension identity behind the paper's measurement counts:
  // 15 / 28 / 45 for orders 4 / 6 / 8.
  EXPECT_EQ(dwmri::num_even_sh_coeffs(4), 15);
  EXPECT_EQ(dwmri::num_even_sh_coeffs(6), 28);
  EXPECT_EQ(dwmri::num_even_sh_coeffs(8), 45);
  EXPECT_EQ(dwmri::num_even_sh_coeffs(4),
            comb::num_unique_entries(4, 3));
  EXPECT_EQ(dwmri::num_even_sh_coeffs(6),
            comb::num_unique_entries(6, 3));
}

TEST(SphericalHarmonics, Y00IsConstant) {
  const double expected = 1.0 / std::sqrt(4.0 * 3.14159265358979323846);
  CounterRng rng(12);
  for (int s = 0; s < 5; ++s) {
    const auto g =
        random_sphere_vector<double>(rng, static_cast<std::uint64_t>(s), 3);
    const auto basis = dwmri::eval_even_sh_basis(0, {g.data(), 3});
    ASSERT_EQ(basis.size(), 1u);
    EXPECT_NEAR(basis[0], expected, 1e-12);
  }
}

TEST(SphericalHarmonics, NumericallyOrthonormal) {
  // Monte-Carlo-ish check with the Fibonacci lattice: <Y_i, Y_j> ~ delta_ij.
  const int L = 4;
  const int nc = dwmri::num_even_sh_coeffs(L);
  const auto pts = fibonacci_sphere<double>(2000);
  Matrix<double> gram(nc, nc);
  for (const auto& p : pts) {
    const auto b = dwmri::eval_even_sh_basis(L, {p.data(), 3});
    for (int i = 0; i < nc; ++i) {
      for (int j = 0; j < nc; ++j) {
        gram(i, j) += b[static_cast<std::size_t>(i)] *
                      b[static_cast<std::size_t>(j)] * 4.0 *
                      3.14159265358979323846 / 2000.0;
      }
    }
  }
  for (int i = 0; i < nc; ++i) {
    for (int j = 0; j < nc; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 2e-2)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(SphericalHarmonics, FitReproducesSeries) {
  // Synthesize from random coefficients, fit back: exact recovery.
  CounterRng rng(13);
  const int L = 4;
  const int nc = dwmri::num_even_sh_coeffs(L);
  std::vector<double> coeffs(static_cast<std::size_t>(nc));
  for (int i = 0; i < nc; ++i) {
    coeffs[static_cast<std::size_t>(i)] =
        rng.in(0, static_cast<std::uint64_t>(i), -1, 1);
  }
  std::vector<dwmri::AdcSample> samples;
  for (const auto& g : fibonacci_hemisphere<double>(40)) {
    dwmri::AdcSample s;
    s.gradient = {g[0], g[1], g[2]};
    s.adc = dwmri::eval_sh(L, {coeffs.data(), coeffs.size()},
                           {s.gradient.data(), 3});
    samples.push_back(s);
  }
  const auto fitted =
      dwmri::fit_sh(L, {samples.data(), samples.size()});
  ASSERT_EQ(fitted.size(), coeffs.size());
  for (int i = 0; i < nc; ++i) {
    EXPECT_NEAR(fitted[static_cast<std::size_t>(i)],
                coeffs[static_cast<std::size_t>(i)], 1e-8)
        << "coeff " << i;
  }
}

TEST(SphericalHarmonics, TensorShRoundTrip) {
  // tensor -> SH -> tensor must reproduce the original (same function
  // space, exact conversion up to rounding).
  dwmri::DiffusionParams params;
  dwmri::Fiber f1, f2;
  f1.direction = {0.8, 0.6, 0.0};
  f1.weight = 0.5;
  f2.direction = {0.0, 0.0, 1.0};
  f2.weight = 0.5;
  const auto a = dwmri::make_voxel_tensor<double>({f1, f2}, params);
  const auto sh = dwmri::sh_from_tensor(a);
  EXPECT_EQ(sh.size(),
            static_cast<std::size_t>(dwmri::num_even_sh_coeffs(4)));
  const auto back = dwmri::tensor_from_sh<double>(4, {sh.data(), sh.size()});
  for (offset_t r = 0; r < a.num_unique(); ++r) {
    EXPECT_NEAR(back.value(r), a.value(r), 1e-7) << "coeff " << r;
  }
}

TEST(SphericalHarmonics, ShSeriesMatchesTensorOnSphere) {
  CounterRng rng(14);
  const auto a = random_symmetric_tensor<double>(rng, 0, 4, 3);
  const auto sh = dwmri::sh_from_tensor(a);
  for (int s = 0; s < 10; ++s) {
    const auto g =
        random_sphere_vector<double>(rng, static_cast<std::uint64_t>(100 + s),
                                     3);
    EXPECT_NEAR(dwmri::eval_sh(4, {sh.data(), sh.size()}, {g.data(), 3}),
                kernels::ttsv0_general(a, {g.data(), 3}), 1e-8)
        << "sample " << s;
  }
}

TEST(SphericalHarmonics, RejectsOddDegree) {
  EXPECT_THROW((void)dwmri::num_even_sh_coeffs(3), InvalidArgument);
  std::vector<dwmri::AdcSample> samples(50);
  EXPECT_THROW((void)dwmri::fit_sh(5, {samples.data(), samples.size()}),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Derived forward-error bound of the unrolled tier: the licence for
// computing extraction residuals on it instead of the general tier.
// ---------------------------------------------------------------------------

/// gamma_k = k u / (1 - k u), u the unit roundoff of T (Higham, Lemma 3.1).
template <Real T>
double gamma_k(int k) {
  const double u = std::numeric_limits<T>::epsilon() / 2;
  return k * u / (1 - k * u);
}

/// Per-entry bound on |unrolled - general| for y = A x^{m-1}:
///   B_i = gamma_{m+K_i}(T) (|A| |x|^{m-1})_i + u_T |y_i|.
/// The unrolled kernel forms each of the K_i contributions to y_i with at
/// most m roundings (the (m-1)-fold x product and the sigma * a scaling)
/// and sums them in T with K_i - 1 more, so it is within
/// gamma_{m+K_i-1}(T) times the sum of |terms|, which is the general kernel
/// run on |A| and |x|. The general kernel sums in double and rounds once
/// to T: the u_T |y_i| term. A strict worst case would also charge the
/// general kernel's own term products and, for double, its summation (up
/// to gamma_{2m+2K_i}); the tighter form is asserted, and the largest
/// |difference| / bound over this sweep is about 0.33 (float, m = n = 2).
template <Real T>
std::vector<double> unrolled_bound(const SymmetricTensor<T>& a,
                                   std::span<const T> x,
                                   std::span<const T> y_general) {
  const int m = a.order();
  const int n = a.dim();
  std::vector<int> contributions(static_cast<std::size_t>(n), 0);
  for (comb::IndexClassIterator it(m, n); !it.done(); it.next()) {
    const auto idx = it.index();
    for (int t = 0; t < m;) {
      const index_t i = idx[t];
      ++contributions[static_cast<std::size_t>(i)];
      while (t < m && idx[t] == i) ++t;
    }
  }
  SymmetricTensor<T> abs_a = a;
  for (T& v : abs_a.values()) v = std::abs(v);
  std::vector<T> abs_x(x.begin(), x.end());
  for (T& v : abs_x) v = std::abs(v);
  std::vector<T> s(static_cast<std::size_t>(n));
  kernels::ttsv1_general(abs_a, std::span<const T>(abs_x),
                         std::span<T>(s));
  const double u = std::numeric_limits<T>::epsilon() / 2;
  std::vector<double> b(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = gamma_k<T>(m + contributions[i]) * static_cast<double>(s[i]) +
           u * std::abs(static_cast<double>(y_general[i]));
  }
  return b;
}

template <Real T>
void expect_unrolled_within_bound(const kernels::UnrolledEntry<T>& e,
                                  const SymmetricTensor<T>& a,
                                  std::span<const T> x, const char* what) {
  const auto n = static_cast<std::size_t>(e.dim);
  std::vector<T> yu(n), yg(n);
  e.ttsv1(a.values().data(), x.data(), yu.data());
  kernels::ttsv1_general(a, x, std::span<T>(yg));
  const auto b = unrolled_bound(a, x, std::span<const T>(yg));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(static_cast<double>(yu[i]) -
                       static_cast<double>(yg[i])),
              b[i])
        << what << " m" << e.order << "n" << e.dim << " entry " << i;
  }
}

template <Real T>
void sweep_unrolled_registry_against_bound() {
  const CounterRng rng(2011);
  for (const auto& e : kernels::unrolled_registry<T>()) {
    const auto vectors = random_sphere_batch<T>(rng, 1000, 16, e.dim);
    for (int t = 0; t < 4; ++t) {
      const auto a = random_symmetric_tensor<T>(
          rng, static_cast<std::uint64_t>(t), e.order, e.dim);
      for (const auto& x : vectors) {
        expect_unrolled_within_bound(e, a, std::span<const T>(x), "random");
      }
    }
    if (e.dim == 3 && e.order % 2 == 0) {
      // Fitted DW-MRI tensors: noisy ADC samples refit by least squares,
      // as the application produces them.
      dwmri::DatasetOptions opt;
      opt.num_voxels = 8;
      opt.order = e.order;
      opt.refit_from_measurements = true;
      opt.num_gradients = 64;
      opt.noise_sigma = 0.02;
      const auto ds = dwmri::make_dataset<T>(7, opt);
      for (const auto& v : ds.voxels) {
        for (const auto& x : vectors) {
          expect_unrolled_within_bound(e, v.tensor, std::span<const T>(x),
                                       "dwmri");
        }
      }
    }
  }
}

TEST(UnrolledBound, EveryRegisteredShapeWithinDerivedBound) {
  ASSERT_FALSE(kernels::unrolled_registry<float>().empty());
  sweep_unrolled_registry_against_bound<float>();
  sweep_unrolled_registry_against_bound<double>();
}

/// True when run `r` merges into pair `p` under cluster_results' rule.
template <Real T>
bool same_pair(const sshopm::Eigenpair<T>& p, const sshopm::Result<T>& r,
               bool even, const sshopm::MultiStartOptions& opt) {
  const auto close = [&](T sgn, T lam) {
    if (std::abs(static_cast<double>(lam - p.lambda)) >
        opt.cluster_lambda_tol) {
      return false;
    }
    double d = 0;
    for (std::size_t i = 0; i < r.x.size(); ++i) {
      const double e =
          static_cast<double>(sgn * r.x[i]) - static_cast<double>(p.x[i]);
      d += e * e;
    }
    return std::sqrt(d) <= opt.cluster_vector_tol;
  };
  return close(T(1), r.lambda) ||
         (even ? close(T(-1), r.lambda) : close(T(-1), -r.lambda));
}

/// Every worst_residual extract_eigenpairs reports is the basin maximum of
/// eigen_residual on the unrolled kernel, and lies within sqrt(n) times the
/// per-entry bound (plus the rounding of the norm itself) of the value the
/// general tier gives.
template <Real T>
void expect_worst_residuals_on_unrolled(const batch::BatchProblem<T>& p) {
  const auto solved = batch::solve_cpu_sequential(p, kernels::Tier::kUnrolled);
  sshopm::MultiStartOptions mopt;
  mopt.inner = p.options;
  const auto lists = batch::extract_eigenpairs(p, solved, mopt);
  const bool even = p.order % 2 == 0;
  int checked = 0;
  for (int t = 0; t < p.num_tensors(); ++t) {
    const auto& a = p.tensors[static_cast<std::size_t>(t)];
    const auto& pairs = lists[static_cast<std::size_t>(t)];
    const kernels::BoundKernels<T> ku(a, kernels::Tier::kUnrolled);
    const kernels::BoundKernels<T> kg(a, kernels::Tier::kGeneral);
    std::vector<T> max_u(pairs.size(), T(0)), max_g(pairs.size(), T(0));
    std::vector<double> allowed(pairs.size(), 0.0);
    std::vector<int> members(pairs.size(), 0);
    for (int s = 0; s < p.num_starts(); ++s) {
      const auto& r = solved.at(t, s);
      if (!r.converged) continue;
      std::size_t owner = pairs.size();
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        if (same_pair(pairs[k], r, even, mopt)) {
          ASSERT_EQ(owner, pairs.size()) << "run " << s << " of tensor " << t
                                         << " is near two pairs";
          owner = k;
        }
      }
      ASSERT_LT(owner, pairs.size()) << "run " << s << " of tensor " << t;
      const std::span<const T> x(r.x);
      const T ru = sshopm::eigen_residual(ku, r.lambda, x);
      const T rg = sshopm::eigen_residual(kg, r.lambda, x);
      std::vector<T> yg(r.x.size());
      kernels::ttsv1_general(a, x, std::span<T>(yg));
      const auto b = unrolled_bound(a, x, std::span<const T>(yg));
      const double dev =
          std::sqrt(static_cast<double>(p.dim)) *
              *std::max_element(b.begin(), b.end()) +
          gamma_k<T>(p.dim + 3) *
              (static_cast<double>(ru) + static_cast<double>(rg));
      EXPECT_LE(std::abs(static_cast<double>(ru) - static_cast<double>(rg)),
                dev);
      ++members[owner];
      max_u[owner] = std::max(max_u[owner], ru);
      max_g[owner] = std::max(max_g[owner], rg);
      allowed[owner] = std::max(allowed[owner], dev);
    }
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      EXPECT_EQ(members[k], pairs[k].basin_count);
      EXPECT_EQ(pairs[k].worst_residual, max_u[k])
          << "tensor " << t << " pair " << k;
      EXPECT_LE(std::abs(static_cast<double>(max_u[k]) -
                         static_cast<double>(max_g[k])),
                allowed[k])
          << "tensor " << t << " pair " << k;
      ++checked;
    }
  }
  EXPECT_GT(checked, p.num_tensors());
}

TEST(UnrolledBound, ExtractWorstResidualIsUnrolledBasinMaximum) {
  // The paper's application: fitted order-4 DW-MRI tensors, alpha = 0.
  dwmri::DatasetOptions opt;
  opt.num_voxels = 24;
  opt.refit_from_measurements = true;
  opt.noise_sigma = 0.02;
  batch::BatchProblem<float> dw;
  dw.order = 4;
  dw.dim = 3;
  dw.tensors = dwmri::make_dataset<float>(11, opt).tensors();
  dw.starts = random_sphere_batch<float>(CounterRng(5), 0, 64, 3);
  dw.options.alpha = 0.0;
  dw.options.tolerance = 1e-6;
  expect_worst_residuals_on_unrolled(dw);

  // Random tensors: odd order in double, and a second shape in float.
  auto odd = batch::BatchProblem<double>::random(31, 8, 48, 3, 3);
  odd.options.alpha = 1.0;
  expect_worst_residuals_on_unrolled(odd);
  auto wide = batch::BatchProblem<float>::random(32, 8, 48, 4, 5);
  wide.options.alpha = 2.0;
  wide.options.tolerance = 1e-6;
  expect_worst_residuals_on_unrolled(wide);
}

}  // namespace
}  // namespace te
