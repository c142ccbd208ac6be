// SS-HOPM solver tests: exact rank-1 oracles, the matrix (order-2) case
// cross-checked against the Jacobi eigensolver, self-validating residuals
// on random tensors, shift behaviour, the literature example, multi-start
// clustering, and eigenpair classification.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "te/kernels/flop_model.hpp"
#include "te/sshopm/spectrum.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"
#include "te/util/sphere.hpp"

namespace te::sshopm {
namespace {

using kernels::BoundKernels;
using kernels::Tier;

template <typename T>
std::vector<T> vec(std::initializer_list<T> v) {
  return std::vector<T>(v);
}

TEST(Sshopm, RankOneTensorConvergesToItsFactor) {
  // A = lambda x0^(x m) with unit x0: (lambda, x0) is an exact eigenpair and
  // the dominant attractor of the unshifted iteration.
  std::vector<double> x0 = {0.6, 0.48, 0.64};  // unit
  for (int m : {3, 4}) {
    auto a = rank_one_tensor<double>(2.5, {x0.data(), x0.size()}, m);
    BoundKernels<double> k(a, Tier::kGeneral);
    std::vector<double> start = {1.0, 0.0, 0.0};
    Options opt;
    opt.tolerance = 1e-12;
    auto r = solve(k, {start.data(), start.size()}, opt);
    ASSERT_TRUE(r.converged) << "m=" << m;
    EXPECT_EQ(r.failure, FailureReason::kNone) << "m=" << m;
    EXPECT_NEAR(r.lambda, 2.5, 1e-6) << "m=" << m;
    for (int i = 0; i < 3; ++i) {
      EXPECT_NEAR(std::abs(r.x[static_cast<std::size_t>(i)]),
                  std::abs(x0[static_cast<std::size_t>(i)]), 1e-5);
    }
    EXPECT_LT(eigen_residual(k, r.lambda, {r.x.data(), r.x.size()}), 1e-6);
  }
}

TEST(Sshopm, MatrixCaseMatchesJacobi) {
  // For m = 2, tensor Z-eigenpairs are exactly matrix eigenpairs; SS-HOPM
  // with a convexity shift must find the largest eigenvalue.
  CounterRng rng(11);
  const int n = 5;
  Matrix<double> msym(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      msym(i, j) = rng.in(0, static_cast<std::uint64_t>(i * n + j), -1, 1);
      msym(j, i) = msym(i, j);
    }
  }
  const auto eig = jacobi_eigen(msym);
  auto a = from_matrix(msym);
  BoundKernels<double> k(a, Tier::kGeneral);

  Options opt;
  opt.alpha = suggest_shift(a);
  opt.tolerance = 1e-13;
  opt.max_iterations = 5000;
  // Several starts: all must converge to *some* matrix eigenvalue, and at
  // least one must reach the maximum.
  CounterRng srng(77);
  double best = -1e300;
  for (int s = 0; s < 8; ++s) {
    auto x0 = random_sphere_vector<double>(srng, static_cast<std::uint64_t>(s), n);
    auto r = solve(k, {x0.data(), x0.size()}, opt);
    ASSERT_TRUE(r.converged);
    bool matches_some = false;
    for (double ev : eig.values) {
      if (std::abs(ev - r.lambda) < 1e-5) matches_some = true;
    }
    EXPECT_TRUE(matches_some) << "lambda=" << r.lambda;
    best = std::max(best, r.lambda);
  }
  EXPECT_NEAR(best, eig.values.back(), 1e-6);
}

TEST(Sshopm, ResidualsSmallOnRandomTensors) {
  // Self-validating property: every converged run satisfies the eigenpair
  // equation A x^{m-1} = lambda x to tight tolerance.
  CounterRng rng(21);
  for (const auto& [m, n] : {std::pair{3, 3}, {4, 3}, {4, 5}, {6, 3}}) {
    auto a = random_symmetric_tensor<double>(rng,
                                             static_cast<std::uint64_t>(m * 16 + n),
                                             m, n);
    BoundKernels<double> k(a, Tier::kGeneral);
    Options opt;
    opt.alpha = suggest_shift(a);
    opt.tolerance = 1e-13;
    opt.max_iterations = 10000;
    CounterRng srng(5);
    for (int s = 0; s < 4; ++s) {
      auto x0 = random_sphere_vector<double>(
          srng, static_cast<std::uint64_t>(s), n);
      auto r = solve(k, {x0.data(), x0.size()}, opt);
      ASSERT_TRUE(r.converged) << "m=" << m << " n=" << n << " s=" << s;
      EXPECT_LT(eigen_residual(k, r.lambda, {r.x.data(), r.x.size()}), 1e-5)
          << "m=" << m << " n=" << n << " s=" << s;
    }
  }
}

TEST(Sshopm, IterateStaysUnitNorm) {
  CounterRng rng(31);
  auto a = random_symmetric_tensor<double>(rng, 1, 4, 3);
  BoundKernels<double> k(a, Tier::kGeneral);
  Options opt;
  opt.alpha = suggest_shift(a);
  std::vector<double> x0 = {3.0, -4.0, 12.0};  // deliberately unnormalized
  auto r = solve(k, {x0.data(), x0.size()}, opt);
  EXPECT_NEAR(nrm2(std::span<const double>(r.x.data(), r.x.size())), 1.0,
              1e-12);
}

TEST(Sshopm, FloatResultIsThirtyTwoBytes) {
  // A batch holds one Result per (tensor, start), 524,288 of them in a
  // 4096-voxel x 128-start volume: with the lambda trace gone and the
  // widest-first member order, the float record is a 20-byte iterate
  // (four floats inline, or a heap pointer in their place, plus a 32-bit
  // length) and 12 bytes of lambda, iterations, a one-byte FailureReason
  // and the flag; an n = 3 run's iterate lives inside it.
  EXPECT_EQ(sizeof(Result<float>), 32u);
  EXPECT_EQ(sizeof(Result<double>), 56u);
  CounterRng rng(140);
  const auto a = random_symmetric_tensor<float>(rng, 0, 4, 3);
  const BoundKernels<float> k(a, Tier::kUnrolled);
  const std::vector<float> x0 = {0.3f, -0.4f, 0.8f};
  const auto r = solve(k, {x0.data(), x0.size()}, Options{});
  EXPECT_EQ(r.x.size(), 3u);
  EXPECT_EQ(r.x.capacity(), kInlineIterate);
  EXPECT_GE(reinterpret_cast<const char*>(r.x.data()),
            reinterpret_cast<const char*>(&r));
  EXPECT_LT(reinterpret_cast<const char*>(r.x.data()),
            reinterpret_cast<const char*>(&r + 1));
}

TEST(Sshopm, NegativeShiftFindsMinima) {
  // alpha < 0 makes the map concave: converges to local *minima* of f.
  // On a rank-1 tensor with even order, the minimum eigenvalue of f on the
  // sphere is 0 (orthogonal directions); on a matrix it is the smallest
  // matrix eigenvalue.
  Matrix<double> msym(3, 3);
  msym(0, 0) = 3;
  msym(1, 1) = -1;
  msym(2, 2) = 1;
  const auto a = from_matrix(msym);
  BoundKernels<double> k(a, Tier::kGeneral);
  Options opt;
  opt.alpha = -suggest_shift(a);
  opt.tolerance = 1e-13;
  opt.max_iterations = 5000;
  std::vector<double> x0 = {0.5, 0.6, 0.7};
  auto r = solve(k, {x0.data(), x0.size()}, opt);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.lambda, -1.0, 1e-6);
}

TEST(Sshopm, ZeroShiftMatchesPaperSetting) {
  // The paper runs alpha = 0 on the DW-MRI tensors; on a strongly peaked
  // quartic (rank-1 dominated) that converges fine.
  std::vector<double> d = {1.0, 0.0, 0.0};
  auto a = rank_one_tensor<double>(1.4, {d.data(), d.size()}, 4);
  BoundKernels<double> k(a, Tier::kUnrolled);
  Options opt;  // alpha = 0
  std::vector<double> x0 = {0.8, 0.5, 0.33};
  auto r = solve(k, {x0.data(), x0.size()}, opt);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.lambda, 1.4, 1e-6);
  EXPECT_NEAR(std::abs(r.x[0]), 1.0, 1e-5);
}

TEST(Sshopm, HonorsMaxIterations) {
  CounterRng rng(41);
  auto a = random_symmetric_tensor<double>(rng, 2, 3, 3);
  BoundKernels<double> k(a, Tier::kGeneral);
  Options opt;
  opt.alpha = suggest_shift(a);
  opt.max_iterations = 2;
  opt.tolerance = 0;  // unreachable
  std::vector<double> x0 = {1, 0, 0};
  auto r = solve(k, {x0.data(), x0.size()}, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 2);
  // Budget exhaustion carries its specific reason -- kNone means converged.
  EXPECT_EQ(r.failure, FailureReason::kMaxIterations);
}

TEST(Sshopm, TalliesOpsWhenAsked) {
  CounterRng rng(51);
  auto a = random_symmetric_tensor<double>(rng, 3, 4, 3);
  BoundKernels<double> k(a, Tier::kUnrolled);
  Options opt;
  opt.alpha = suggest_shift(a);
  std::vector<double> x0 = {1, 0, 0};
  OpCounts ops;
  auto r = solve(k, {x0.data(), x0.size()}, opt, &ops);
  EXPECT_GT(ops.flops(), 0);
  // At least the per-iteration kernel flops times the iteration count.
  EXPECT_GE(ops.flops(),
            r.iterations *
                (kernels::flops_symmetric_ttsv0(4, 3).flops() +
                 kernels::flops_symmetric_ttsv1(4, 3).flops()));
}

TEST(Sshopm, EvenOrderSignSymmetry) {
  // For even m, (lambda, -x) is an eigenpair whenever (lambda, x) is:
  // starting from -x0 must give the same lambda.
  CounterRng rng(61);
  auto a = random_symmetric_tensor<double>(rng, 4, 4, 3);
  BoundKernels<double> k(a, Tier::kGeneral);
  Options opt;
  opt.alpha = suggest_shift(a);
  opt.tolerance = 1e-13;
  opt.max_iterations = 5000;
  std::vector<double> x0 = {0.26, -0.74, 0.62};
  std::vector<double> x0n = {-0.26, 0.74, -0.62};
  auto r1 = solve(k, {x0.data(), x0.size()}, opt);
  auto r2 = solve(k, {x0n.data(), x0n.size()}, opt);
  ASSERT_TRUE(r1.converged && r2.converged);
  EXPECT_NEAR(r1.lambda, r2.lambda, 1e-8);
}

TEST(Sshopm, SuggestShiftDominatesSpectrum) {
  // The conservative shift must exceed |lambda| of any eigenpair found.
  CounterRng rng(71);
  auto a = random_symmetric_tensor<double>(rng, 5, 3, 3);
  const double alpha = suggest_shift(a);
  BoundKernels<double> k(a, Tier::kGeneral);
  Options opt;
  opt.alpha = alpha;
  CounterRng srng(3);
  for (int s = 0; s < 6; ++s) {
    auto x0 = random_sphere_vector<double>(srng, static_cast<std::uint64_t>(s), 3);
    auto r = solve(k, {x0.data(), x0.size()}, opt);
    if (r.converged) {
      EXPECT_LT(std::abs(r.lambda), alpha);
    }
  }
}

// ---------------------------------------------------------------------------
// The Kofidis-Regalia example (Kolda & Mayo's Example 1).
// ---------------------------------------------------------------------------

TEST(Spectrum, RegressionFixtureEigenpairsStable) {
  // The fixed order-3 fixture's eigenpairs act as golden regression values
  // (validated independently by the dense-oracle kernel tests and by the
  // residual identity below): any change to the iteration or kernels that
  // alters them is a correctness event, not noise.
  auto a = kofidis_regalia_example<double>();
  MultiStartOptions opt;
  opt.inner.alpha = 2.0;
  opt.inner.tolerance = 1e-14;
  opt.inner.max_iterations = 5000;
  CounterRng rng(123);
  auto starts = random_sphere_batch<double>(rng, 0, 64, 3);
  auto pairs = find_eigenpairs(a, Tier::kGeneral,
                               {starts.data(), starts.size()}, opt);
  ASSERT_GE(pairs.size(), 2u);
  for (const auto& p : pairs) {
    EXPECT_LT(p.worst_residual, 1e-6) << "lambda=" << p.lambda;
  }
  auto contains = [&](double target) {
    for (const auto& p : pairs) {
      if (std::abs(p.lambda - target) < 5e-4) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains(2.348952));
  EXPECT_TRUE(contains(0.785993));
  // With a positive shift, everything found is a constrained local max.
  for (const auto& p : pairs) {
    EXPECT_EQ(p.type, SpectralType::kLocalMax) << "lambda=" << p.lambda;
  }
}

TEST(Spectrum, RegressionFixtureAgreesAcrossTiers) {
  auto a = kofidis_regalia_example<double>();
  MultiStartOptions opt;
  opt.inner.alpha = 2.0;
  opt.inner.tolerance = 1e-14;
  opt.inner.max_iterations = 5000;
  CounterRng rng(123);
  auto starts = random_sphere_batch<double>(rng, 0, 16, 3);
  kernels::KernelTables<double> tab(3, 3);
  auto pg = find_eigenpairs(a, Tier::kGeneral, {starts.data(), starts.size()},
                            opt);
  auto pp = find_eigenpairs(a, Tier::kPrecomputed,
                            {starts.data(), starts.size()}, opt, &tab);
  auto pu = find_eigenpairs(a, Tier::kUnrolled,
                            {starts.data(), starts.size()}, opt);
  ASSERT_EQ(pg.size(), pp.size());
  ASSERT_EQ(pg.size(), pu.size());
  for (std::size_t i = 0; i < pg.size(); ++i) {
    EXPECT_NEAR(pg[i].lambda, pp[i].lambda, 1e-10);
    EXPECT_NEAR(pg[i].lambda, pu[i].lambda, 1e-10);
    EXPECT_EQ(pg[i].basin_count, pp[i].basin_count);
  }
}

// ---------------------------------------------------------------------------
// Multi-start clustering and classification.
// ---------------------------------------------------------------------------

TEST(Spectrum, ClusteringMergesBasins) {
  // A rank-1 quartic has one dominant eigenpair; dozens of starts must
  // collapse to a small set of clusters with the dominant one first.
  std::vector<double> d = {0.0, 0.6, 0.8};
  auto a = rank_one_tensor<double>(3.0, {d.data(), d.size()}, 4);
  MultiStartOptions opt;
  opt.inner.alpha = suggest_shift(a);
  opt.inner.tolerance = 1e-13;
  opt.inner.max_iterations = 5000;
  CounterRng rng(5);
  auto starts = random_sphere_batch<double>(rng, 0, 32, 3);
  auto pairs = find_eigenpairs(a, Tier::kGeneral,
                               {starts.data(), starts.size()}, opt);
  ASSERT_FALSE(pairs.empty());
  EXPECT_NEAR(pairs.front().lambda, 3.0, 1e-6);
  EXPECT_GT(pairs.front().basin_count, 16);  // dominant basin
  int total = 0;
  for (const auto& p : pairs) total += p.basin_count;
  EXPECT_EQ(total, 32);  // every converged start lands in one cluster
}

TEST(Spectrum, ClassifiesMatrixExtremaCorrectly) {
  // Diagonal matrix: e1 is the max eigenpair (local max of the quadratic
  // on the sphere), e3 the min, e2 a saddle.
  Matrix<double> msym(3, 3);
  msym(0, 0) = 5;
  msym(1, 1) = 2;
  msym(2, 2) = -1;
  auto a = from_matrix(msym);
  std::vector<double> e1 = {1, 0, 0}, e2 = {0, 1, 0}, e3 = {0, 0, 1};
  EXPECT_EQ(classify(a, 5.0, {e1.data(), 3}), SpectralType::kLocalMax);
  EXPECT_EQ(classify(a, 2.0, {e2.data(), 3}), SpectralType::kSaddle);
  EXPECT_EQ(classify(a, -1.0, {e3.data(), 3}), SpectralType::kLocalMin);
}

TEST(Spectrum, RankOneQuarticPeakIsLocalMax) {
  std::vector<double> d = {1.0, 0.0, 0.0};
  auto a = rank_one_tensor<double>(2.0, {d.data(), d.size()}, 4);
  EXPECT_EQ(classify(a, 2.0, {d.data(), 3}), SpectralType::kLocalMax);
}

TEST(Spectrum, FindEigenpairsSortsDescending) {
  CounterRng rng(91);
  auto a = random_symmetric_tensor<double>(rng, 6, 3, 3);
  MultiStartOptions opt;
  opt.inner.alpha = suggest_shift(a);
  opt.inner.tolerance = 1e-13;
  opt.inner.max_iterations = 5000;
  auto starts = random_sphere_batch<double>(rng, 1000, 24, 3);
  auto pairs = find_eigenpairs(a, Tier::kGeneral,
                               {starts.data(), starts.size()}, opt);
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_GE(pairs[i - 1].lambda, pairs[i].lambda);
  }
}

TEST(Spectrum, PositiveShiftFindsOnlyMaxima) {
  // Kolda & Mayo: with alpha large enough, SS-HOPM converges only to
  // constrained local maxima.
  CounterRng rng(92);
  auto a = random_symmetric_tensor<double>(rng, 7, 4, 3);
  MultiStartOptions opt;
  opt.inner.alpha = suggest_shift(a);
  opt.inner.tolerance = 1e-13;
  opt.inner.max_iterations = 20000;
  auto starts = random_sphere_batch<double>(rng, 2000, 32, 3);
  auto pairs = find_eigenpairs(a, Tier::kGeneral,
                               {starts.data(), starts.size()}, opt);
  ASSERT_FALSE(pairs.empty());
  for (const auto& p : pairs) {
    EXPECT_NE(p.type, SpectralType::kLocalMin)
        << "lambda=" << p.lambda << " basins=" << p.basin_count;
  }
}

}  // namespace
}  // namespace te::sshopm
