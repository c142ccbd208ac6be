// DW-MRI substrate tests: the isotropic quartic, voxel tensor construction,
// ADC models, the least-squares tensor fit (exact recovery and noise
// robustness), dataset generation, and end-to-end fiber-direction recovery
// through the eigensolver.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "te/dwmri/dataset.hpp"
#include "te/dwmri/fiber_model.hpp"
#include "te/dwmri/fit.hpp"
#include "te/dwmri/grid_search.hpp"
#include "te/parallel/thread_pool.hpp"
#include "te/sshopm/spectrum.hpp"
#include "te/util/sphere.hpp"

namespace te::dwmri {
namespace {

TEST(FiberModel, IsotropicQuarticIsConstantOnSphere) {
  const auto iso = isotropic_quartic<double>(3);
  CounterRng rng(1);
  for (int s = 0; s < 10; ++s) {
    auto g = random_sphere_vector<double>(rng, static_cast<std::uint64_t>(s),
                                          3);
    EXPECT_NEAR(
        kernels::ttsv0_general(iso, std::span<const double>(g.data(), 3)),
        1.0, 1e-10);
  }
}

TEST(FiberModel, IsotropicEvenTensorConstantForHigherOrders) {
  CounterRng rng(99);
  for (int order : {2, 6, 8}) {
    const auto iso = isotropic_even_tensor<double>(order, 3);
    for (int s = 0; s < 6; ++s) {
      auto g = random_sphere_vector<double>(rng,
                                            static_cast<std::uint64_t>(s), 3);
      EXPECT_NEAR(
          kernels::ttsv0_general(iso, std::span<const double>(g.data(), 3)),
          1.0, 1e-9)
          << "order " << order;
    }
  }
}

TEST(FiberModel, HigherOrderVoxelTensorsKeepFiberValues) {
  // At any even order, ADC along the fiber is lambda_par and orthogonal to
  // it lambda_perp -- the lobes just get sharper in between.
  DiffusionParams params;
  Fiber f;
  f.direction = {0.6, 0.0, 0.8};
  std::array<double, 3> along = f.direction;
  std::array<double, 3> ortho = {0.8, 0.0, -0.6};
  std::array<double, 3> diag = {1.0, 0.0, 0.0};  // between the two
  double prev_mid = 2.0;
  for (int order : {4, 6, 8}) {
    const auto a = make_voxel_tensor_order<double>(order, {f}, params);
    EXPECT_NEAR(kernels::ttsv0_general(
                    a, std::span<const double>(along.data(), 3)),
                params.lambda_par, 1e-9)
        << "order " << order;
    EXPECT_NEAR(kernels::ttsv0_general(
                    a, std::span<const double>(ortho.data(), 3)),
                params.lambda_perp, 1e-9)
        << "order " << order;
    // Sharper lobes: the off-axis value decreases with order.
    const double mid = kernels::ttsv0_general(
        a, std::span<const double>(diag.data(), 3));
    EXPECT_LT(mid, prev_mid) << "order " << order;
    prev_mid = mid;
  }
}

TEST(FiberModel, SingleFiberAdcPeaksAlongFiber) {
  DiffusionParams params;
  Fiber f;
  f.direction = {0.6, 0.0, 0.8};
  const auto a = make_voxel_tensor<double>({f}, params);
  // ADC along the fiber is lambda_par; orthogonal it is lambda_perp.
  std::array<double, 3> along = f.direction;
  std::array<double, 3> ortho = {0.8, 0.0, -0.6};
  EXPECT_NEAR(adc_quartic(a, std::span<const double>(along.data(), 3)),
              params.lambda_par, 1e-9);
  EXPECT_NEAR(adc_quartic(a, std::span<const double>(ortho.data(), 3)),
              params.lambda_perp, 1e-9);
}

TEST(FiberModel, TwoFiberAdcPeaksNearBothFibers) {
  DiffusionParams params;
  Fiber f1, f2;
  f1.direction = {1, 0, 0};
  f1.weight = 0.5;
  f2.direction = {0, 1, 0};
  f2.weight = 0.5;
  const auto a = make_voxel_tensor<double>({f1, f2}, params);
  std::array<double, 3> g1 = {1, 0, 0}, gmid = {std::sqrt(0.5),
                                                std::sqrt(0.5), 0};
  const double peak = adc_quartic(a, std::span<const double>(g1.data(), 3));
  const double mid = adc_quartic(a, std::span<const double>(gmid.data(), 3));
  EXPECT_GT(peak, mid);  // 90-degree crossing: fibers are distinct maxima
}

TEST(FiberModel, DiffusionTensorEigenstructure) {
  DiffusionParams params;
  Fiber f;
  f.direction = {0, 0, 1};
  const auto d = fiber_diffusion_tensor(f, params);
  EXPECT_NEAR(d(2, 2), params.lambda_par, 1e-12);
  EXPECT_NEAR(d(0, 0), params.lambda_perp, 1e-12);
  EXPECT_NEAR(d(0, 2), 0.0, 1e-12);
}

TEST(FiberModel, SignalModelMatchesQuadraticForSingleFiber) {
  // For one fiber, ADC(g) = g^T D g exactly (the log cancels the exp).
  DiffusionParams params;
  Fiber f;
  f.direction = {0.48, 0.6, 0.64};
  CounterRng rng(2);
  for (int s = 0; s < 8; ++s) {
    auto g = random_sphere_vector<double>(rng, static_cast<std::uint64_t>(s),
                                          3);
    const auto d = fiber_diffusion_tensor(f, params);
    double q = 0;
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j)
        q += g[static_cast<std::size_t>(i)] * d(i, j) *
             g[static_cast<std::size_t>(j)];
    EXPECT_NEAR(adc_signal_model({f}, params,
                                 std::span<const double>(g.data(), 3)),
                q, 1e-10);
  }
}

TEST(FiberModel, SignalModelIsSubAdditiveForCrossings) {
  // With two fibers the log-sum-exp ADC lies below the weighted quadratic
  // mean (Jensen), the reason order-2 fits blur crossings.
  DiffusionParams params;
  Fiber f1, f2;
  f1.direction = {1, 0, 0};
  f1.weight = 0.5;
  f2.direction = {0, 1, 0};
  f2.weight = 0.5;
  std::array<double, 3> g = {1, 0, 0};
  const double adc = adc_signal_model({f1, f2}, params,
                                      std::span<const double>(g.data(), 3));
  const double quad_mean =
      0.5 * params.lambda_par + 0.5 * params.lambda_perp;
  EXPECT_LT(adc, quad_mean);
  EXPECT_GT(adc, params.lambda_perp);
}

TEST(Fit, DesignRowEvaluatesForm) {
  // Row . packed_values == A g^m for any tensor: check against ttsv0.
  CounterRng rng(3);
  auto a = random_symmetric_tensor<double>(rng, 0, 4, 3);
  auto g = random_sphere_vector<double>(rng, 55, 3);
  const auto row = design_row(4, std::span<const double>(g.data(), 3));
  double v = 0;
  for (offset_t j = 0; j < a.num_unique(); ++j) {
    v += row[static_cast<std::size_t>(j)] * a.value(j);
  }
  EXPECT_NEAR(v,
              kernels::ttsv0_general(a, std::span<const double>(g.data(), 3)),
              1e-10);
}

TEST(Fit, ExactRecoveryFromCleanSamples) {
  // >= 15 noiseless ADC samples determine the order-4 tensor exactly.
  DiffusionParams params;
  Fiber f1, f2;
  f1.direction = {0.8, 0.6, 0.0};
  f1.weight = 0.6;
  f2.direction = {0.0, 0.6, 0.8};
  f2.weight = 0.4;
  const auto truth = make_voxel_tensor<double>({f1, f2}, params);

  std::vector<AdcSample> samples;
  for (const auto& g : fibonacci_hemisphere<double>(24)) {
    AdcSample s;
    s.gradient = {g[0], g[1], g[2]};
    s.adc = adc_quartic(truth, std::span<const double>(s.gradient.data(), 3));
    samples.push_back(s);
  }
  const auto fitted =
      fit_tensor<double>(4, {samples.data(), samples.size()});
  for (offset_t j = 0; j < truth.num_unique(); ++j) {
    EXPECT_NEAR(fitted.value(j), truth.value(j), 1e-8) << "coeff " << j;
  }
}

TEST(Fit, MinimumSampleCountEnforced) {
  std::vector<AdcSample> samples(14);  // one short of 15
  EXPECT_THROW((void)fit_tensor<double>(4, {samples.data(), samples.size()}),
               InvalidArgument);
}

TEST(Fit, NoiseRobustWithRidge) {
  DiffusionParams params;
  Fiber f;
  f.direction = {1, 0, 0};
  const auto truth = make_voxel_tensor<double>({f}, params);
  CounterRng rng(17);
  std::vector<AdcSample> samples;
  int counter = 0;
  for (const auto& g : fibonacci_hemisphere<double>(60)) {
    AdcSample s;
    s.gradient = {g[0], g[1], g[2]};
    s.adc = adc_quartic(truth, std::span<const double>(s.gradient.data(), 3)) +
            0.01 * rng.normal(0, static_cast<std::uint64_t>(counter++));
    samples.push_back(s);
  }
  const auto fitted =
      fit_tensor<double>(4, {samples.data(), samples.size()}, 1e-6);
  for (offset_t j = 0; j < truth.num_unique(); ++j) {
    EXPECT_NEAR(fitted.value(j), truth.value(j), 0.05) << "coeff " << j;
  }
}

// fit_tensor keeps a per-thread memo of each gradient scheme's design
// matrix and Cholesky factor. Its oracle is the arithmetic it replaced: a
// design matrix from design_row and one least_squares call per voxel.
template <Real T>
SymmetricTensor<T> reference_fit(int order, std::span<const AdcSample> samples,
                                 double ridge) {
  const offset_t u = comb::num_unique_entries(order, 3);
  TE_REQUIRE(static_cast<offset_t>(samples.size()) >= u, "under-determined");
  Matrix<double> a(static_cast<int>(samples.size()), static_cast<int>(u));
  std::vector<double> b(samples.size());
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const auto row = design_row(
        order, std::span<const double>(samples[s].gradient.data(), 3));
    for (offset_t j = 0; j < u; ++j) {
      a(static_cast<int>(s), static_cast<int>(j)) =
          row[static_cast<std::size_t>(j)];
    }
    b[s] = samples[s].adc;
  }
  const auto coeffs =
      least_squares(a, std::span<const double>(b.data(), b.size()), ridge);
  SymmetricTensor<T> out(order, 3);
  for (offset_t j = 0; j < u; ++j) {
    out.value(j) = static_cast<T>(coeffs[static_cast<std::size_t>(j)]);
  }
  return out;
}

/// `dirs` hemisphere directions with pseudo-random ADC values (`salt`
/// varies the voxel, not the scheme). `swap_xy` gives a second scheme of
/// the same size: the directions with x and y exchanged.
std::vector<AdcSample> scheme_samples(int dirs, std::uint64_t salt,
                                      bool swap_xy = false) {
  CounterRng rng(41);
  std::vector<AdcSample> samples;
  int i = 0;
  for (const auto& g : fibonacci_hemisphere<double>(dirs)) {
    AdcSample s;
    s.gradient = {g[0], g[1], g[2]};
    if (swap_xy) std::swap(s.gradient[0], s.gradient[1]);
    s.adc = rng.in(salt, static_cast<std::uint64_t>(i++), 0.1, 2.0);
    samples.push_back(s);
  }
  return samples;
}

template <Real T>
bool bitwise_equal(const SymmetricTensor<T>& a, const SymmetricTensor<T>& b) {
  const auto va = a.values();
  const auto vb = b.values();
  return a.order() == b.order() && va.size() == vb.size() &&
         std::memcmp(va.data(), vb.data(), va.size() * sizeof(T)) == 0;
}

/// fit_tensor<T> on `samples` is the reference bit for bit, or both throw.
template <Real T>
void expect_fit_matches_reference(int order,
                                  const std::vector<AdcSample>& samples,
                                  double ridge, const std::string& what) {
  const std::span<const AdcSample> span(samples.data(), samples.size());
  std::optional<SymmetricTensor<T>> want;
  try {
    want = reference_fit<T>(order, span, ridge);
  } catch (const InvalidArgument&) {
  }
  if (!want) {
    EXPECT_THROW((void)fit_tensor<T>(order, span, ridge), InvalidArgument)
        << what;
    return;
  }
  EXPECT_TRUE(bitwise_equal(fit_tensor<T>(order, span, ridge), *want)) << what;
}

TEST(FitMemo, BitwiseTheReferenceAcrossOrdersRidgesAndSchemes) {
  for (const int order : {2, 4, 6}) {
    for (const double ridge : {0.0, 1e-8, 1e-6}) {
      for (const int dirs : {15, 30, 64}) {
        const std::string what = "order " + std::to_string(order) +
                                 " ridge " + std::to_string(ridge) +
                                 " dirs " + std::to_string(dirs);
        // Several voxels per scheme: the first call fills the memo, the
        // rest hit it.
        for (std::uint64_t voxel = 0; voxel < 3; ++voxel) {
          const auto samples = scheme_samples(dirs, voxel);
          expect_fit_matches_reference<double>(order, samples, ridge, what);
          expect_fit_matches_reference<float>(order, samples, ridge, what);
        }
      }
    }
  }
}

TEST(FitMemo, AlternatingSchemesStayBitwise) {
  for (std::uint64_t voxel = 0; voxel < 6; ++voxel) {
    expect_fit_matches_reference<float>(4, scheme_samples(30, voxel), 0.0,
                                        "30 dirs");
    expect_fit_matches_reference<float>(4, scheme_samples(30, voxel, true),
                                        0.0, "30 dirs, x and y swapped");
    expect_fit_matches_reference<float>(4, scheme_samples(64, voxel), 0.0,
                                        "64 dirs");
  }
}

TEST(FitMemo, OneUlpSchemeChangeMissesTheMemo) {
  const auto base = scheme_samples(30, 1);
  expect_fit_matches_reference<double>(4, base, 0.0, "base");  // memoised
  auto nudged = base;
  nudged[7].gradient[1] = std::nextafter(nudged[7].gradient[1], 2.0);
  const std::span<const AdcSample> b(base.data(), base.size());
  const std::span<const AdcSample> n(nudged.data(), nudged.size());
  // The nudge changes the answer, so a stale hit would be visible.
  ASSERT_FALSE(bitwise_equal(reference_fit<double>(4, b, 0.0),
                             reference_fit<double>(4, n, 0.0)));
  EXPECT_TRUE(
      bitwise_equal(fit_tensor<double>(4, n), reference_fit<double>(4, n, 0.0)));
  // Another ridge on the memoised scheme is another key too.
  EXPECT_TRUE(bitwise_equal(fit_tensor<double>(4, b, 1e-8),
                            reference_fit<double>(4, b, 1e-8)));
}

TEST(FitMemo, UnderDeterminedThrowsAndLeavesTheMemoUsable) {
  const auto samples = scheme_samples(30, 2);
  expect_fit_matches_reference<double>(4, samples, 0.0, "before");
  const std::vector<AdcSample> short_scheme(samples.begin(),
                                            samples.begin() + 14);
  EXPECT_THROW(
      (void)fit_tensor<double>(4, {short_scheme.data(), short_scheme.size()}),
      InvalidArgument);
  expect_fit_matches_reference<double>(4, scheme_samples(30, 3), 0.0,
                                       "after");
}

TEST(FitMemo, NonSpdSchemeThrowsEveryCallAndIsNotKept) {
  // Every gradient along x: the normal equations have rank one.
  std::vector<AdcSample> flat(30);
  for (auto& s : flat) {
    s.gradient = {1.0, 0.0, 0.0};
    s.adc = 1.0;
  }
  for (int call = 0; call < 3; ++call) {
    EXPECT_THROW((void)fit_tensor<double>(4, {flat.data(), flat.size()}),
                 InvalidArgument);
  }
  expect_fit_matches_reference<double>(4, scheme_samples(30, 4), 0.0,
                                       "good scheme after");
  EXPECT_THROW((void)fit_tensor<double>(4, {flat.data(), flat.size()}),
               InvalidArgument);
  expect_fit_matches_reference<double>(4, scheme_samples(30, 5), 0.0,
                                       "good scheme again");
}

TEST(FitMemo, PoolWorkersFitDifferentSchemesAtOnce) {
  // Each worker thread has its own memo; indices alternate schemes, so
  // every worker misses and refills it while the others do the same.
  constexpr int kSchemes = 4;
  constexpr int kFits = 256;
  const int dirs[kSchemes] = {30, 30, 40, 64};
  std::vector<std::vector<AdcSample>> inputs;
  std::vector<SymmetricTensor<float>> want;
  for (int i = 0; i < kFits; ++i) {
    inputs.push_back(scheme_samples(dirs[i % kSchemes],
                                    static_cast<std::uint64_t>(i / kSchemes),
                                    i % kSchemes == 1));
    const auto& s = inputs.back();
    want.push_back(reference_fit<float>(4, {s.data(), s.size()}, 1e-8));
  }
  std::vector<std::optional<SymmetricTensor<float>>> got(kFits);
  ThreadPool pool(4);
  pool.parallel_for(kFits, [&](std::int64_t i) {
    const auto& s = inputs[static_cast<std::size_t>(i)];
    got[static_cast<std::size_t>(i)] =
        fit_tensor<float>(4, {s.data(), s.size()}, 1e-8);
  });
  for (int i = 0; i < kFits; ++i) {
    ASSERT_TRUE(got[static_cast<std::size_t>(i)].has_value()) << i;
    EXPECT_TRUE(bitwise_equal(*got[static_cast<std::size_t>(i)],
                              want[static_cast<std::size_t>(i)]))
        << "fit " << i;
  }
}

TEST(Dataset, DeterministicAndSized) {
  DatasetOptions opt;
  opt.num_voxels = 64;
  const auto a = make_dataset<float>(11, opt);
  const auto b = make_dataset<float>(11, opt);
  ASSERT_EQ(a.voxels.size(), 64u);
  for (std::size_t i = 0; i < a.voxels.size(); ++i) {
    EXPECT_EQ(a.voxels[i].tensor, b.voxels[i].tensor);
    EXPECT_EQ(a.voxels[i].fibers.size(), b.voxels[i].fibers.size());
  }
}

TEST(Dataset, MixesOneAndTwoFiberVoxels) {
  DatasetOptions opt;
  opt.num_voxels = 256;
  opt.two_fiber_fraction = 0.5;
  const auto ds = make_dataset<double>(12, opt);
  int twos = 0;
  for (const auto& v : ds.voxels) {
    ASSERT_GE(v.fibers.size(), 1u);
    ASSERT_LE(v.fibers.size(), 2u);
    if (v.fibers.size() == 2) ++twos;
  }
  EXPECT_GT(twos, 100);
  EXPECT_LT(twos, 156);
}

TEST(Dataset, CrossingAnglesRespectBounds) {
  DatasetOptions opt;
  opt.num_voxels = 200;
  opt.two_fiber_fraction = 1.0;
  opt.min_crossing_deg = 40;
  opt.max_crossing_deg = 80;
  const auto ds = make_dataset<double>(13, opt);
  for (const auto& v : ds.voxels) {
    ASSERT_EQ(v.fibers.size(), 2u);
    const double deg =
        angular_error_deg(std::span<const double>(v.fibers[0].direction.data(), 3),
                          std::span<const double>(v.fibers[1].direction.data(), 3));
    EXPECT_GE(deg, 39.9);
    EXPECT_LE(deg, 80.1);
  }
}

TEST(Dataset, RefitPipelinePreservesTensor) {
  DatasetOptions opt;
  opt.num_voxels = 16;
  opt.refit_from_measurements = true;
  opt.num_gradients = 30;
  DatasetOptions clean = opt;
  clean.refit_from_measurements = false;
  const auto fitted = make_dataset<double>(14, opt);
  const auto truth = make_dataset<double>(14, clean);
  for (std::size_t i = 0; i < fitted.voxels.size(); ++i) {
    for (offset_t j = 0; j < 15; ++j) {
      EXPECT_NEAR(fitted.voxels[i].tensor.value(j),
                  truth.voxels[i].tensor.value(j), 1e-7)
          << "voxel " << i << " coeff " << j;
    }
  }
}

TEST(Dataset, OrderSixFlowsThroughBatchedPipeline) {
  // End-to-end at order 6 (Sec. IV: "orders 4 and 6 most commonly used"):
  // dataset -> batched solve (unrolled (6,3) is in the registry) ->
  // per-voxel peaks -> recovery.
  DatasetOptions opt;
  opt.num_voxels = 8;
  opt.order = 6;
  opt.two_fiber_fraction = 0.5;
  opt.min_crossing_deg = 60;  // order 6 resolves these
  const auto ds = make_dataset<float>(21, opt);
  ASSERT_EQ(ds.voxels.front().tensor.order(), 6);
  ASSERT_EQ(ds.voxels.front().tensor.num_unique(), 28);

  CounterRng rng(5);
  const auto starts = random_sphere_batch<float>(rng, 0, 64, 3);
  sshopm::MultiStartOptions mopt;
  mopt.inner.alpha = 0.0;
  mopt.inner.tolerance = 1e-6;
  mopt.inner.max_iterations = 300;

  int matched = 0, fibers = 0;
  for (const auto& voxel : ds.voxels) {
    const auto pairs = sshopm::find_eigenpairs(
        voxel.tensor, kernels::Tier::kUnrolled,
        {starts.data(), starts.size()}, mopt);
    std::vector<std::vector<float>> peaks;
    for (const auto& p : pairs) {
      if (p.type == sshopm::SpectralType::kLocalMax) peaks.push_back(p.x);
    }
    const auto score = score_recovery(
        voxel,
        std::span<const std::vector<float>>(peaks.data(), peaks.size()),
        10.0);
    matched += score.matched;
    fibers += score.true_fibers;
  }
  EXPECT_GE(matched * 10, fibers * 9)  // >= 90% recovery at these angles
      << matched << "/" << fibers;
}

TEST(Metrics, AngularErrorAntipodalInvariant) {
  std::array<double, 3> a = {1, 0, 0};
  std::array<double, 3> b = {-1, 0, 0};
  EXPECT_NEAR(angular_error_deg(std::span<const double>(a.data(), 3),
                                std::span<const double>(b.data(), 3)),
              0.0, 1e-10);
  std::array<double, 3> c = {0, 1, 0};
  EXPECT_NEAR(angular_error_deg(std::span<const double>(a.data(), 3),
                                std::span<const double>(c.data(), 3)),
              90.0, 1e-10);
}

TEST(Metrics, ScoreCountsMatches) {
  Voxel<double> v;
  Fiber f1, f2;
  f1.direction = {1, 0, 0};
  f2.direction = {0, 1, 0};
  v.fibers = {f1, f2};
  std::vector<std::vector<double>> peaks = {{0.999, 0.04, 0.0}};
  const auto s = score_recovery(
      v, std::span<const std::vector<double>>(peaks.data(), peaks.size()),
      10.0);
  EXPECT_EQ(s.true_fibers, 2);
  EXPECT_EQ(s.recovered_peaks, 1);
  EXPECT_EQ(s.matched, 1);
  EXPECT_GT(s.mean_error_deg, 0);
  EXPECT_LT(s.mean_error_deg, 5);
}

TEST(GridSearch, FindsSingleFiberPeak) {
  DiffusionParams params;
  Fiber f;
  f.direction = {0.6, 0.0, 0.8};
  const auto a = make_voxel_tensor<double>({f}, params);
  GridSearchOptions opt;
  const auto peaks = grid_search_peaks(a, opt);
  ASSERT_GE(peaks.size(), 1u);
  // The dominant peak points along the fiber, to grid resolution.
  std::array<double, 3> pd = {peaks[0].direction[0], peaks[0].direction[1],
                              peaks[0].direction[2]};
  EXPECT_LT(angular_error_deg(std::span<const double>(f.direction.data(), 3),
                              std::span<const double>(pd.data(), 3)),
            8.0);
  EXPECT_NEAR(peaks[0].value, params.lambda_par, 0.1);
}

TEST(GridSearch, PolishTightensAccuracy) {
  DiffusionParams params;
  Fiber f;
  f.direction = {0.0, 0.6, 0.8};
  const auto a = make_voxel_tensor<double>({f}, params);
  GridSearchOptions coarse;
  coarse.num_samples = 128;
  GridSearchOptions polished = coarse;
  polished.polish_steps = 25;
  const auto p0 = grid_search_peaks(a, coarse);
  const auto p1 = grid_search_peaks(a, polished);
  ASSERT_FALSE(p0.empty());
  ASSERT_FALSE(p1.empty());
  auto err = [&](const GridPeak<double>& p) {
    std::array<double, 3> pd = {p.direction[0], p.direction[1],
                                p.direction[2]};
    return angular_error_deg(std::span<const double>(f.direction.data(), 3),
                             std::span<const double>(pd.data(), 3));
  };
  EXPECT_LE(err(p1[0]), err(p0[0]) + 1e-9);
  EXPECT_LT(err(p1[0]), 1.0);
}

TEST(GridSearch, SeparatesWideCrossing) {
  DiffusionParams params;
  Fiber f1, f2;
  f1.direction = {1, 0, 0};
  f1.weight = 0.5;
  f2.direction = {0, 0, 1};
  f2.weight = 0.5;
  const auto a = make_voxel_tensor<double>({f1, f2}, params);
  GridSearchOptions opt;
  opt.num_samples = 1024;
  const auto peaks = grid_search_peaks(a, opt);
  ASSERT_GE(peaks.size(), 2u);
  Voxel<double> voxel;
  voxel.fibers = {f1, f2};
  std::vector<std::vector<double>> dirs;
  for (const auto& p : peaks) dirs.push_back(p.direction);
  const auto score = score_recovery(
      voxel, std::span<const std::vector<double>>(dirs.data(), dirs.size()),
      10.0);
  EXPECT_EQ(score.matched, 2);
}

TEST(GridSearch, RejectsNonSphereDimensions) {
  SymmetricTensor<double> a(4, 4);
  EXPECT_THROW((void)grid_search_peaks(a), InvalidArgument);
}

TEST(EndToEnd, RecoverFibersFromVoxelTensor) {
  // The full Section IV pipeline on one crossing voxel: build the tensor,
  // find eigenpairs from many starts, keep the local maxima, match them to
  // the true fibers.
  DiffusionParams params;
  Fiber f1, f2;
  f1.direction = {1, 0, 0};
  f1.weight = 0.55;
  f2.direction = {0, 0.6, 0.8};
  f2.weight = 0.45;
  Voxel<double> voxel;
  voxel.fibers = {f1, f2};
  voxel.tensor = make_voxel_tensor<double>(voxel.fibers, params);

  sshopm::MultiStartOptions opt;
  opt.inner.alpha = 0.0;  // the paper's setting for this data
  opt.inner.tolerance = 1e-12;
  opt.inner.max_iterations = 1000;
  CounterRng rng(3);
  auto starts = random_sphere_batch<double>(rng, 0, 128, 3);
  const auto pairs = sshopm::find_eigenpairs(
      voxel.tensor, kernels::Tier::kUnrolled, {starts.data(), starts.size()},
      opt);

  std::vector<std::vector<double>> peaks;
  for (const auto& p : pairs) {
    if (p.type == sshopm::SpectralType::kLocalMax) peaks.push_back(p.x);
  }
  const auto score = score_recovery(
      voxel, std::span<const std::vector<double>>(peaks.data(), peaks.size()),
      10.0);
  EXPECT_EQ(score.matched, 2) << "peaks found: " << peaks.size();
  EXPECT_LT(score.mean_error_deg, 6.0);
}

}  // namespace
}  // namespace te::dwmri
