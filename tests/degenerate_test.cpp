// Degenerate-input coverage for the SS-HOPM failure-path hardening:
// zero/NaN/Inf starting vectors and tensor entries driven through solve(),
// solve_adaptive(), the multi-start spectrum sweep, and the batch Scheduler
// on all three backends. The contract under test:
//
//   * no degenerate *value* ever escapes as an exception (solve runs on
//     scheduler worker threads, where throwing is fatal);
//   * every non-converged Result carries a specific FailureReason;
//   * poisoned runs stop immediately instead of burning max_iterations
//     (the NaN convergence test |next - lambda| <= tol is always false);
//   * all backends agree on the failure classification, slot for slot.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "te/batch/scheduler.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/sshopm/adaptive.hpp"
#include "te/sshopm/spectrum.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"
#include "te/util/sphere.hpp"

namespace te {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr kernels::Tier kCpuTiers[] = {kernels::Tier::kGeneral,
                                       kernels::Tier::kPrecomputed,
                                       kernels::Tier::kUnrolled};

SymmetricTensor<double> good_tensor() {
  return random_symmetric_tensor<double>(CounterRng(11), 5, 4, 3);
}

// ---------------------------------------------------------------------------
// solve(): degenerate starts.
// ---------------------------------------------------------------------------

TEST(DegenerateSolve, ZeroStartReportsOnEveryTier) {
  const auto a = good_tensor();
  const kernels::KernelTables<double> tables(4, 3);
  const std::vector<double> x0 = {0.0, 0.0, 0.0};
  for (const auto tier : kCpuTiers) {
    kernels::BoundKernels<double> k(a, tier, &tables);
    sshopm::Result<double> r;
    ASSERT_NO_THROW(r = sshopm::solve(k, {x0.data(), 3}, {}));
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.failure, sshopm::FailureReason::kDegenerateIterate);
    EXPECT_EQ(r.iterations, 0);  // rejected before any iteration
  }
}

TEST(DegenerateSolve, NaNAndInfStartsReport) {
  const auto a = good_tensor();
  kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);
  for (const double bad : {kNaN, kInf, -kInf}) {
    const std::vector<double> x0 = {0.5, bad, 0.5};
    sshopm::Result<double> r;
    ASSERT_NO_THROW(r = sshopm::solve(k, {x0.data(), 3}, {}));
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.failure, sshopm::FailureReason::kDegenerateIterate)
        << "bad entry " << bad;
    EXPECT_EQ(r.iterations, 0);
  }
}

// ---------------------------------------------------------------------------
// solve(): poisoned tensors.
// ---------------------------------------------------------------------------

TEST(DegenerateSolve, NaNTensorStopsAtSetupNotAtMaxIterations) {
  auto a = good_tensor();
  a.values()[0] = kNaN;
  const std::vector<double> x0 = {0.6, 0.0, 0.8};
  for (const auto tier : kCpuTiers) {
    const kernels::KernelTables<double> tables(4, 3);
    kernels::BoundKernels<double> k(a, tier, &tables);
    sshopm::Options opt;
    opt.max_iterations = 500;
    sshopm::Result<double> r;
    ASSERT_NO_THROW(r = sshopm::solve(k, {x0.data(), 3}, opt));
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.failure, sshopm::FailureReason::kNonFiniteLambda);
    EXPECT_TRUE(std::isnan(r.lambda));
    // The regression this suite guards: the NaN used to sail through the
    // |next - lambda| <= tol test and burn the entire 500-iteration budget.
    EXPECT_EQ(r.iterations, 0);
  }
}

TEST(DegenerateSolve, InfTensorReportsNonFiniteLambda) {
  auto a = good_tensor();
  a.values()[1] = kInf;
  kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);
  const std::vector<double> x0 = {0.6, 0.0, 0.8};
  sshopm::Result<double> r;
  ASSERT_NO_THROW(r = sshopm::solve(k, {x0.data(), 3}, {}));
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.failure, sshopm::FailureReason::kNonFiniteLambda);
  EXPECT_FALSE(std::isfinite(r.lambda));
}

TEST(DegenerateSolve, ZeroTensorAlphaZeroDiesOnFirstIterate) {
  const SymmetricTensor<double> a(4, 3);  // all-zero entries
  kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);
  const std::vector<double> x0 = {1.0, 0.0, 0.0};
  sshopm::Result<double> r;
  ASSERT_NO_THROW(r = sshopm::solve(k, {x0.data(), 3}, {}));
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.failure, sshopm::FailureReason::kDegenerateIterate);
  EXPECT_EQ(r.iterations, 1);
  // The degenerate break leaves the pre-normalization iterate in x (all
  // zero here), not NaNs.
  for (const double v : r.x) EXPECT_EQ(v, 0.0);
}

TEST(DegenerateSolve, HealthyRunsCarryKNone) {
  const auto a = good_tensor();
  kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);
  const std::vector<double> x0 = {0.6, 0.0, 0.8};
  sshopm::Options opt;
  opt.alpha = 2.0;
  const auto ok = sshopm::solve(k, {x0.data(), 3}, opt);
  EXPECT_TRUE(ok.converged);
  EXPECT_EQ(ok.failure, sshopm::FailureReason::kNone);

  // Budget exhaustion is its own reason, distinct from poisoned data.
  opt.max_iterations = 1;
  opt.tolerance = 0.0;
  const auto slow = sshopm::solve(k, {x0.data(), 3}, opt);
  EXPECT_FALSE(slow.converged);
  EXPECT_EQ(slow.failure, sshopm::FailureReason::kMaxIterations);
}

// ---------------------------------------------------------------------------
// solve_adaptive(): same contract.
// ---------------------------------------------------------------------------

TEST(DegenerateAdaptive, ZeroStartReports) {
  const auto a = good_tensor();
  const std::vector<double> x0 = {0.0, 0.0, 0.0};
  sshopm::AdaptiveResult<double> r;
  ASSERT_NO_THROW(r = sshopm::solve_adaptive(a, {x0.data(), 3},
                                             sshopm::AdaptiveOptions{}));
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.failure, sshopm::FailureReason::kDegenerateIterate);
}

TEST(DegenerateAdaptive, HealthyRunsCarryKNone) {
  const auto a = good_tensor();
  const std::vector<double> x0 = {0.6, 0.0, 0.8};
  sshopm::AdaptiveResult<double> r;
  ASSERT_NO_THROW(r = sshopm::solve_adaptive(a, {x0.data(), 3},
                                             sshopm::AdaptiveOptions{}));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.failure, sshopm::FailureReason::kNone);
}

// ---------------------------------------------------------------------------
// Spectrum sweep: poisoned runs must not contaminate the eigenpair list.
// ---------------------------------------------------------------------------

TEST(DegenerateSpectrum, PoisonedStartsAreSkippedNotPropagated) {
  const auto a = good_tensor();
  CounterRng rng(77);
  auto starts = random_sphere_batch<double>(rng, 0, 6, 3);
  starts[1] = {0.0, 0.0, 0.0};   // degenerate
  starts[4] = {kNaN, 1.0, 0.0};  // poisoned

  sshopm::MultiStartOptions opt;
  opt.inner.alpha = 2.0;
  opt.keep_unconverged = true;  // even then, poisoned runs must be skipped
  std::vector<sshopm::Eigenpair<double>> pairs;
  ASSERT_NO_THROW(
      pairs = sshopm::find_eigenpairs<double>(
          a, kernels::Tier::kGeneral,
          std::span<const std::vector<double>>(starts.data(), starts.size()),
          opt));
  ASSERT_FALSE(pairs.empty());
  int basins = 0;
  for (const auto& p : pairs) {
    EXPECT_TRUE(std::isfinite(p.lambda));
    EXPECT_TRUE(std::isfinite(p.worst_residual));
    for (const double v : p.x) EXPECT_TRUE(std::isfinite(v));
    basins += p.basin_count;
  }
  EXPECT_EQ(basins, 4);  // 6 starts minus the two poisoned ones
}

TEST(DegenerateSpectrum, FullyPoisonedTensorYieldsEmptyListNotThrow) {
  auto a = good_tensor();
  for (auto& v : a.values()) v = kNaN;
  CounterRng rng(78);
  const auto starts = random_sphere_batch<double>(rng, 0, 4, 3);
  sshopm::MultiStartOptions opt;
  std::vector<sshopm::Eigenpair<double>> pairs;
  ASSERT_NO_THROW(
      pairs = sshopm::find_eigenpairs<double>(
          a, kernels::Tier::kGeneral,
          std::span<const std::vector<double>>(starts.data(), starts.size()),
          opt));
  EXPECT_TRUE(pairs.empty());
}

// ---------------------------------------------------------------------------
// Scheduler: degenerate jobs across all three backends.
// ---------------------------------------------------------------------------

/// A (4,3) batch with tensor 1 NaN-poisoned and start 1 zeroed, so slots
/// mix all three failure species with healthy converged runs.
batch::BatchProblem<float> poisoned_problem() {
  auto p = batch::BatchProblem<float>::random(123, 4, 3, 4, 3);
  p.options.alpha = 1.0;
  p.tensors[1].values()[2] = std::numeric_limits<float>::quiet_NaN();
  p.starts[1] = {0.0f, 0.0f, 0.0f};
  return p;
}

TEST(DegenerateScheduler, AllBackendsReportAndAgree) {
  const auto p = poisoned_problem();
  constexpr batch::Backend kBackends[] = {batch::Backend::kCpuSequential,
                                          batch::Backend::kCpuParallel,
                                          batch::Backend::kGpuSim};
  std::vector<std::vector<sshopm::Result<float>>> per_backend;
  for (const auto backend : kBackends) {
    batch::SchedulerOptions opt;
    opt.chunk_tensors = 2;  // force multiple chunks
    batch::Scheduler<float> sched(backend, opt);
    batch::JobId id{};
    ASSERT_NO_THROW(id = sched.submit(p, kernels::Tier::kGeneral));
    ASSERT_NO_THROW(sched.run()) << backend_name(backend);
    const auto& r = sched.result(id);
    per_backend.push_back(r.results);

    for (int t = 0; t < p.num_tensors(); ++t) {
      for (int v = 0; v < p.num_starts(); ++v) {
        const auto& res = r.at(t, v);
        if (res.converged) {
          EXPECT_EQ(res.failure, sshopm::FailureReason::kNone);
          EXPECT_TRUE(std::isfinite(res.lambda));
        } else {
          EXPECT_NE(res.failure, sshopm::FailureReason::kNone);
        }
        if (v == 1) {  // zero start degenerates before the tensor is read
          EXPECT_EQ(res.failure,
                    sshopm::FailureReason::kDegenerateIterate);
        } else if (t == 1) {  // NaN tensor: every start poisons immediately
          EXPECT_EQ(res.failure, sshopm::FailureReason::kNonFiniteLambda);
          EXPECT_EQ(res.iterations, 0);  // budget not burned
        } else {
          // Healthy slots either converge or run out of budget; they must
          // never be classified as degenerate/non-finite.
          EXPECT_TRUE(res.converged ||
                      res.failure == sshopm::FailureReason::kMaxIterations);
        }
      }
    }
  }

  // Slot-for-slot cross-backend agreement on outcome classification.
  for (std::size_t b = 1; b < per_backend.size(); ++b) {
    ASSERT_EQ(per_backend[b].size(), per_backend[0].size());
    for (std::size_t s = 0; s < per_backend[0].size(); ++s) {
      EXPECT_EQ(per_backend[b][s].failure, per_backend[0][s].failure)
          << "backend " << b << " slot " << s;
      EXPECT_EQ(per_backend[b][s].converged, per_backend[0][s].converged);
      EXPECT_EQ(per_backend[b][s].iterations, per_backend[0][s].iterations);
    }
  }
}

TEST(DegenerateScheduler, GpusimMatchesOneShotOnPoisonedBatch) {
  const auto p = poisoned_problem();
  batch::SchedulerOptions opt;
  opt.chunk_tensors = 3;
  batch::Scheduler<float> sched(batch::Backend::kGpuSim, opt);
  const auto id = sched.submit(p, kernels::Tier::kUnrolled);
  sched.run();
  const auto& chunked = sched.result(id);

  const auto oneshot = batch::solve_gpusim(p, kernels::Tier::kUnrolled);
  ASSERT_EQ(chunked.results.size(), oneshot.results.size());
  for (std::size_t s = 0; s < oneshot.results.size(); ++s) {
    EXPECT_EQ(chunked.results[s].failure, oneshot.results[s].failure);
    EXPECT_EQ(chunked.results[s].converged, oneshot.results[s].converged);
    EXPECT_EQ(chunked.results[s].iterations, oneshot.results[s].iterations);
    const bool nan_slot = std::isnan(oneshot.results[s].lambda);
    EXPECT_EQ(std::isnan(chunked.results[s].lambda), nan_slot);
    if (!nan_slot) {
      EXPECT_EQ(chunked.results[s].lambda, oneshot.results[s].lambda);
    }
  }
}

}  // namespace
}  // namespace te
