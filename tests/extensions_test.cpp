// Tests for the extension features beyond the paper's shipped system: the
// (device) blocked tier from the paper's future-work list, the adaptive
// shift, the tier autotuner, and the multi-GPU batch backend from the
// Section V-B remark.

#include <gtest/gtest.h>

#include "te/batch/batch.hpp"
#include "te/kernels/autotune.hpp"
#include "te/kernels/blocked.hpp"
#include "te/kernels/general.hpp"
#include "te/sshopm/adaptive.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"
#include "te/util/sphere.hpp"

namespace te {
namespace {

using kernels::Tier;

// ---------------------------------------------------------------------------
// Blocked kernels (a device tier: the raw cores run inside the simulated
// GPU kernel; the host facade refuses the tier).
// ---------------------------------------------------------------------------

class BlockedShapeTest : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(BlockedShapeTest, MatchesGeneral) {
  const auto& [m, n] = GetParam();
  CounterRng rng(6);
  auto a = random_symmetric_tensor<double>(rng,
                                           static_cast<std::uint64_t>(m * 10 + n),
                                           m, n);
  kernels::KernelTables<double> tab(m, n);
  auto x = random_sphere_vector<double>(rng, 42, n);
  EXPECT_NEAR(
      kernels::ttsv0_blocked_raw(a.values().data(), tab, {x.data(), x.size()}),
      kernels::ttsv0_general(a, {x.data(), x.size()}), 1e-10);
  std::vector<double> yb(static_cast<std::size_t>(n)),
      yg(static_cast<std::size_t>(n));
  kernels::ttsv1_blocked_raw(a.values().data(), tab, {x.data(), x.size()},
                             {yb.data(), yb.size()});
  kernels::ttsv1_general(a, {x.data(), x.size()}, {yg.data(), yg.size()});
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(yb[static_cast<std::size_t>(i)],
                yg[static_cast<std::size_t>(i)], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedShapeTest,
    ::testing::Values(std::pair{3, 3}, std::pair{4, 3}, std::pair{4, 10},
                      std::pair{5, 8}, std::pair{6, 6}, std::pair{2, 20}),
    [](const auto& p) {
      return "m" + std::to_string(p.param.first) + "n" +
             std::to_string(p.param.second);
    });

template <int kPanel>
void expect_panel_matches_general(const SymmetricTensor<double>& a,
                                  const kernels::KernelTables<double>& tab,
                                  const std::vector<double>& x) {
  const std::span<const double> xs(x.data(), x.size());
  EXPECT_NEAR((kernels::ttsv0_blocked_raw<double, kPanel>(a.values().data(),
                                                          tab, xs)),
              kernels::ttsv0_general(a, xs), 1e-10)
      << "panel " << kPanel;
  std::vector<double> yb(x.size()), yg(x.size());
  kernels::ttsv1_blocked_raw<double, kPanel>(a.values().data(), tab, xs,
                                             {yb.data(), yb.size()});
  kernels::ttsv1_general(a, xs, {yg.data(), yg.size()});
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(yb[i], yg[i], 1e-10) << "panel " << kPanel << " i " << i;
  }
}

TEST(Blocked, PanelWidthsAgree) {
  // Remainder handling: class (70) and contribution counts not divisible
  // by the panel width, on both kernels.
  CounterRng rng(7);
  auto a = random_symmetric_tensor<double>(rng, 0, 4, 5);
  kernels::KernelTables<double> tab(4, 5);
  auto x = random_sphere_vector<double>(rng, 1, 5);
  expect_panel_matches_general<1>(a, tab, x);
  expect_panel_matches_general<3>(a, tab, x);
  expect_panel_matches_general<8>(a, tab, x);
  expect_panel_matches_general<16>(a, tab, x);
}

TEST(Blocked, GpuBackendMatchesCpu) {
  // The device blocked kernel against the host tier reading the same
  // tables.
  auto p = batch::BatchProblem<float>::random(55, 8, 32, 4, 5);
  p.options.alpha = sshopm::suggest_shift(p.tensors.front());
  p.options.tolerance = 1e-5;
  const auto cpu = batch::solve_cpu_sequential(p, Tier::kPrecomputed);
  const auto gpu = batch::solve_gpusim(p, Tier::kBlocked);
  ASSERT_EQ(cpu.results.size(), gpu.results.size());
  for (std::size_t i = 0; i < cpu.results.size(); ++i) {
    EXPECT_NEAR(cpu.results[i].lambda, gpu.results[i].lambda, 2e-4)
        << "slot " << i;
  }
}

TEST(Blocked, GpuTierBeatsUnrolledPastCollapse) {
  // The point of the blocked tier on the GPU: at (4, 6) the unrolled body
  // overflows registers and the I-cache; the blocked kernel does not.
  auto p = batch::BatchProblem<float>::random(56, 112, 128, 4, 6);
  p.options.alpha = sshopm::suggest_shift(p.tensors.front());
  p.options.tolerance = 1e-5;
  const auto unrolled = batch::solve_gpusim(p, Tier::kUnrolled);
  const auto blocked = batch::solve_gpusim(p, Tier::kBlocked);
  EXPECT_LT(blocked.modeled_seconds, unrolled.modeled_seconds);
  // ...while at the paper's application shape (4, 3) unrolled still wins.
  auto q = batch::BatchProblem<float>::random(57, 112, 128, 4, 3);
  q.options.alpha = sshopm::suggest_shift(q.tensors.front());
  q.options.tolerance = 1e-5;
  const auto u2 = batch::solve_gpusim(q, Tier::kUnrolled);
  const auto b2 = batch::solve_gpusim(q, Tier::kBlocked);
  EXPECT_LT(u2.modeled_seconds, b2.modeled_seconds);
}

TEST(Blocked, BoundKernelsRefusesDeviceOnlyTier) {
  CounterRng rng(58);
  auto a = random_symmetric_tensor<double>(rng, 0, 4, 5);
  kernels::KernelTables<double> tab(4, 5);
  EXPECT_THROW((kernels::BoundKernels<double>(a, Tier::kBlocked)),
               InvalidArgument);
  EXPECT_THROW((kernels::BoundKernels<double>(a, Tier::kBlocked, &tab)),
               InvalidArgument);
  // The host table tier still needs its tables.
  EXPECT_THROW((kernels::BoundKernels<double>(a, Tier::kPrecomputed)),
               InvalidArgument);
  EXPECT_NO_THROW((kernels::BoundKernels<double>(a, Tier::kPrecomputed, &tab)));
}

// ---------------------------------------------------------------------------
// Adaptive shift.
// ---------------------------------------------------------------------------

TEST(Adaptive, ConvergesWithoutUserShift) {
  CounterRng rng(8);
  for (const auto& [m, n] : {std::pair{3, 3}, {4, 3}, {4, 5}}) {
    auto a = random_symmetric_tensor<double>(
        rng, static_cast<std::uint64_t>(m * 10 + n), m, n);
    sshopm::AdaptiveOptions opt;
    for (int s = 0; s < 4; ++s) {
      auto x0 = random_sphere_vector<double>(rng,
                                             static_cast<std::uint64_t>(100 + s),
                                             n);
      const auto r = sshopm::solve_adaptive(a, {x0.data(), x0.size()}, opt);
      ASSERT_TRUE(r.converged) << "m=" << m << " n=" << n << " s=" << s;
      kernels::BoundKernels<double> k(a, Tier::kGeneral);
      EXPECT_LT(sshopm::eigen_residual(k, r.lambda,
                                       {r.x.data(), r.x.size()}),
                1e-4)
          << "m=" << m << " n=" << n;
    }
  }
}

TEST(Adaptive, FewerIterationsThanConservativeFixedShift) {
  CounterRng rng(9);
  auto a = random_symmetric_tensor<double>(rng, 0, 4, 5);
  auto x0 = random_sphere_vector<double>(rng, 1, 5);

  sshopm::Options fixed;
  fixed.alpha = sshopm::suggest_shift(a);
  fixed.tolerance = 1e-10;
  fixed.max_iterations = 100000;
  kernels::BoundKernels<double> k(a, Tier::kGeneral);
  const auto rf = sshopm::solve(k, {x0.data(), x0.size()}, fixed);

  sshopm::AdaptiveOptions ad;
  ad.tolerance = 1e-10;
  const auto ra = sshopm::solve_adaptive(a, {x0.data(), x0.size()}, ad);

  ASSERT_TRUE(rf.converged);
  ASSERT_TRUE(ra.converged);
  EXPECT_LT(ra.iterations * 5, rf.iterations)
      << "adaptive " << ra.iterations << " vs fixed " << rf.iterations;
  // The adaptive shift never exceeded the conservative global bound.
  EXPECT_LE(ra.max_alpha, fixed.alpha * 1.05);
}

TEST(Adaptive, FindsMaximaByDefaultAndMinimaWhenAsked) {
  Matrix<double> msym(3, 3);
  msym(0, 0) = 4;
  msym(1, 1) = 1;
  msym(2, 2) = -2;
  auto a = from_matrix(msym);
  std::vector<double> x0 = {0.5, 0.62, 0.6};
  sshopm::AdaptiveOptions opt;
  const auto rmax = sshopm::solve_adaptive(a, {x0.data(), 3}, opt);
  ASSERT_TRUE(rmax.converged);
  EXPECT_NEAR(rmax.lambda, 4.0, 1e-6);
  opt.find_minima = true;
  const auto rmin = sshopm::solve_adaptive(a, {x0.data(), 3}, opt);
  ASSERT_TRUE(rmin.converged);
  EXPECT_NEAR(rmin.lambda, -2.0, 1e-6);
}

TEST(Adaptive, RejectsOrderOne) {
  SymmetricTensor<double> a(1, 3);
  std::vector<double> x0 = {1, 0, 0};
  sshopm::AdaptiveOptions opt;
  EXPECT_THROW((void)sshopm::solve_adaptive(a, {x0.data(), 3}, opt),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Autotuner.
// ---------------------------------------------------------------------------

TEST(Autotune, MeasuresEveryAvailableTier) {
  const auto report = kernels::autotune_tier(4, 3, 200);
  EXPECT_GT(report.general_us, 0);
  EXPECT_GT(report.precomputed_us, 0);
  EXPECT_GT(report.unrolled_us, 0);  // (4, 3) is in the registry
  EXPECT_GT(report.best_us(), 0);
  EXPECT_TRUE(kernels::runs_on_host(report.best));
  // The chosen tier really is the minimum of the measured set.
  for (double us :
       {report.general_us, report.precomputed_us, report.unrolled_us}) {
    EXPECT_LE(report.best_us(), us + 1e-9);
  }
}

TEST(Autotune, UnregisteredShapeSkipsUnrolled) {
  const auto report = kernels::autotune_tier(4, 12, 50);
  EXPECT_EQ(report.unrolled_us, -1);
  EXPECT_NE(report.best, kernels::Tier::kUnrolled);
  EXPECT_GT(report.best_us(), 0);
}

TEST(Autotune, PicksUnrolledAtApplicationShape) {
  // At (4, 3) the unrolled tier should win by an order of magnitude; give
  // the measurement enough reps to be stable.
  const auto report = kernels::autotune_tier(4, 3, 5000);
  EXPECT_EQ(report.best, kernels::Tier::kUnrolled)
      << "general " << report.general_us << " precomp "
      << report.precomputed_us << " unrolled " << report.unrolled_us;
}

// ---------------------------------------------------------------------------
// Multi-GPU.
// ---------------------------------------------------------------------------

TEST(MultiGpu, ResultsMatchSingleDevice) {
  auto p = batch::BatchProblem<float>::random(10, 30, 32, 4, 3);
  p.options.alpha = 1.0;
  const auto one = batch::solve_gpusim(p, Tier::kUnrolled);
  const auto two = batch::solve_gpusim_multi(p, Tier::kUnrolled, 2);
  ASSERT_EQ(one.results.size(), two.results.size());
  for (std::size_t i = 0; i < one.results.size(); ++i) {
    EXPECT_EQ(one.results[i].lambda, two.results[i].lambda) << "slot " << i;
  }
  EXPECT_EQ(one.useful_flops, two.useful_flops);
}

TEST(MultiGpu, ScalesLargeBatches) {
  auto p = batch::BatchProblem<float>::random(11, 448, 64, 4, 3);
  const auto one = batch::solve_gpusim(p, Tier::kUnrolled);
  const auto four = batch::solve_gpusim_multi(p, Tier::kUnrolled, 4);
  // 448 blocks saturate one device (4 full waves); 4 devices get 1 wave
  // each: close to 4x, minus per-launch overhead.
  EXPECT_GT(one.modeled_seconds / four.modeled_seconds, 2.5);
  EXPECT_LE(one.modeled_seconds / four.modeled_seconds, 4.1);
}

TEST(MultiGpu, MoreDevicesThanTensorsIsFine) {
  auto p = batch::BatchProblem<float>::random(12, 3, 8, 4, 3);
  const auto r = batch::solve_gpusim_multi(p, Tier::kUnrolled, 8);
  EXPECT_EQ(r.results.size(), 3u * 8u);
  EXPECT_GT(r.modeled_seconds, 0);
}

TEST(MultiGpu, RejectsZeroDevices) {
  auto p = batch::BatchProblem<float>::random(13, 2, 4, 4, 3);
  EXPECT_THROW((void)batch::solve_gpusim_multi(p, Tier::kUnrolled, 0),
               InvalidArgument);
}

}  // namespace
}  // namespace te
