// Differential oracle suite: the QRST spectrum is complete for the fixture
// shapes, so EVERY converged eigenpair claimed by any other solver -- fixed
// shift, adaptive shift, lane-blocked multi-start, on any execution backend
// and any kernel tier -- must match a QRST pair. The suite also proves the
// oracle has teeth: seeded wrong pairs MUST be flagged as mismatches.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "golden_eigenpairs.hpp"
#include "te/batch/scheduler.hpp"
#include "te/decomp/oracle.hpp"
#include "te/sshopm/adaptive.hpp"
#include "te/sshopm/multi.hpp"
#include "te/util/sphere.hpp"

namespace te::decomp {
namespace {

using batch::Backend;
using kernels::Tier;

constexpr std::array<Backend, 3> kBackends = {
    Backend::kCpuSequential, Backend::kCpuParallel, Backend::kGpuSim};
constexpr std::array<Tier, 4> kTiers = {Tier::kGeneral, Tier::kPrecomputed,
                                        Tier::kBlocked, Tier::kUnrolled};

[[nodiscard]] bool tier_supported(Backend b, Tier tier) {
  return b == Backend::kGpuSim ? kernels::runs_on_device(tier)
                               : kernels::runs_on_host(tier);
}

/// Scheduler-routed batch solve (the entry point all backends share).
template <Real T>
[[nodiscard]] batch::BatchResult<T> run_backend(Backend b,
                                                const batch::BatchProblem<T>& p,
                                                Tier tier) {
  batch::SchedulerOptions opt;
  opt.chunk_tensors = 2;
  batch::Scheduler<T> sched(b, opt);
  const batch::JobId id = sched.submit(p, tier);
  sched.run();
  return sched.result(id);
}

TEST(DifferentialOracle, FixedShiftAllBackendsAllTiersMatchQrst) {
  // Every converged SS-HOPM run on the Kofidis-Regalia tensor, across all
  // three execution backends and every kernel tier the backend supports,
  // must land on a QRST pair.
  const Oracle<double> oracle(kofidis_regalia_example<double>());
  ASSERT_EQ(oracle.spectrum().pairs.size(), 3u);

  for (Backend b : kBackends) {
    for (Tier tier : kTiers) {
      if (!tier_supported(b, tier)) continue;
      batch::BatchProblem<double> p;
      p.order = 3;
      p.dim = 3;
      p.tensors = {kofidis_regalia_example<double>()};
      p.starts = fibonacci_sphere<double>(24);
      p.options.alpha = 1.0;
      p.options.tolerance = 1e-10;
      p.options.max_iterations = 1000;
      const auto r = run_backend(b, p, tier);
      const auto rep = verify_results(oracle, r.results);
      EXPECT_TRUE(rep.clean())
          << batch::backend_name(b) << "/" << kernels::tier_name(tier)
          << ": " << rep.mismatched << " of " << rep.checked
          << " converged pairs not in the QRST spectrum";
    }
  }
}

TEST(DifferentialOracle, NegativeShiftMinimaMatchQrstToo) {
  // Concave-branch runs (alpha < 0 converges to constrained minima, i.e.
  // the negated odd-order classes) must also be spectrum members.
  const auto a = kofidis_regalia_example<double>();
  const Oracle<double> oracle(a);
  kernels::BoundKernels<double> k(a, Tier::kGeneral);
  sshopm::Options opt;
  opt.alpha = -1.0;
  opt.tolerance = 1e-10;
  opt.max_iterations = 1000;
  const auto starts = fibonacci_sphere<double>(16);
  int checked = 0;
  for (const auto& x0 : starts) {
    const auto r = sshopm::solve(k, {x0.data(), x0.size()}, opt);
    if (!r.converged) continue;
    ++checked;
    EXPECT_TRUE(oracle.check_result(r)) << "lambda=" << r.lambda;
  }
  EXPECT_GT(checked, 0);
}

TEST(DifferentialOracle, MultiStartLanesAllWidthsMatchQrst) {
  // The start sweep's SIMD lanes must produce spectrum members whatever
  // the facade's width.
  const auto a = kofidis_regalia_example<double>();
  const Oracle<double> oracle(a);
  const auto starts = fibonacci_sphere<double>(24);
  sshopm::Options opt;
  opt.alpha = 1.0;
  opt.tolerance = 1e-10;
  opt.max_iterations = 1000;
  for (const int width : kernels::multi_widths()) {
    const kernels::BoundKernels<double> k(a, Tier::kGeneral, nullptr, width);
    std::vector<sshopm::Result<double>> runs(starts.size());
    sshopm::solve_starts(
        k, std::span<const std::vector<double>>(starts.data(), starts.size()),
        opt, std::span<sshopm::Result<double>>(runs));
    const auto rep = verify_results(oracle, runs);
    EXPECT_TRUE(rep.clean())
        << "width " << width << ": " << rep.mismatched << " of "
        << rep.checked << " mismatched";
  }
}

TEST(DifferentialOracle, AdaptiveShiftMatchesQrstOnFixtures) {
  // solve_adaptive under the same harness: converged adaptive pairs are
  // spectrum members on the golden fixture and on every rank-one fixture.
  {
    const auto a = kofidis_regalia_example<double>();
    const Oracle<double> oracle(a);
    std::vector<sshopm::AdaptiveResult<double>> runs;
    for (const auto& x0 : fibonacci_sphere<double>(24)) {
      runs.push_back(sshopm::solve_adaptive(
          a, {x0.data(), x0.size()}, sshopm::AdaptiveOptions{}));
    }
    const auto rep = verify_results(oracle, runs);
    EXPECT_TRUE(rep.clean())
        << rep.mismatched << " of " << rep.checked << " mismatched";
  }
  for (const auto& f : golden::kRankOneFixtures) {
    const auto a = golden::make_rank_one<double>(f);
    const Oracle<double> oracle(a);
    std::vector<sshopm::AdaptiveResult<double>> runs;
    for (const auto& x0 : fibonacci_sphere<double>(12)) {
      runs.push_back(sshopm::solve_adaptive(
          a, {x0.data(), x0.size()}, sshopm::AdaptiveOptions{}));
    }
    const auto rep = verify_results(oracle, runs);
    EXPECT_TRUE(rep.clean()) << "order " << f.order << ": "
                             << rep.mismatched << " of " << rep.checked
                             << " mismatched";
  }
}

TEST(DifferentialOracle, FloatBackendsMatchQrstWithScaledTolerances) {
  // Float claims carry ~sqrt(eps_f) error; widen the oracle tolerances
  // accordingly (the policy documented in oracle.hpp).
  OracleOptions oopt;
  oopt.lambda_tol = 5e-3;
  oopt.vector_tol = 5e-3;
  const Oracle<float> oracle(kofidis_regalia_example<float>(), oopt);
  batch::BatchProblem<float> p;
  p.order = 3;
  p.dim = 3;
  p.tensors = {kofidis_regalia_example<float>()};
  p.starts = fibonacci_sphere<float>(16);
  p.options.alpha = 1.0f;
  p.options.max_iterations = 1000;
  const auto r = run_backend(Backend::kCpuSequential, p, Tier::kGeneral);
  const auto rep = verify_results(oracle, r.results);
  EXPECT_TRUE(rep.clean())
      << rep.mismatched << " of " << rep.checked << " mismatched";
}

TEST(DifferentialOracle, ZeroEigenvalueClaimsUseResidualPath) {
  // On a rank-one tensor every unit y orthogonal to x satisfies
  // A y^{m-1} = 0 = 0 * y: a valid zero-eigenvalue claim that is NOT an
  // enumerated pair. The oracle must accept it via the zero-class residual
  // path -- and still reject a zero claim whose vector is NOT an eigenvector.
  const auto& f = golden::kRankOneFixtures[0];  // m=3, x=(1/3,2/3,2/3)
  const Oracle<double> oracle(golden::make_rank_one<double>(f));
  ASSERT_TRUE(oracle.spectrum().has_zero_class);

  std::vector<double> y = {0.0, -0.6 * 3.0 / std::sqrt(18.0),
                           0.6 * 3.0 / std::sqrt(18.0)};
  // y orthogonal to (1,2,2)/3: 0*1 + (-c)*2 + c*2 = 0 for any c; normalize.
  y = {0.0, -1.0 / std::sqrt(2.0), 1.0 / std::sqrt(2.0)};
  const auto m = oracle.match(0.0, std::span<const double>(y.data(), 3));
  EXPECT_TRUE(m.matched);
  EXPECT_TRUE(m.zero_class);
  EXPECT_LE(m.residual, 1e-12);

  // lambda = 0 with the construction direction itself: A x^2 = 2.5 x != 0,
  // so this claim is wrong and must fail.
  const std::vector<double> x(f.x.begin(), f.x.end());
  EXPECT_FALSE(oracle.check(0.0, std::span<const double>(x.data(), 3)));
}

TEST(DifferentialOracle, SeededMismatchesAreRejected) {
  // The oracle must actually fail on wrong pairs: perturbed eigenvector,
  // wrong eigenvalue, and a doctored run injected into a clean batch.
  const auto a = kofidis_regalia_example<double>();
  const Oracle<double> oracle(a);
  const auto& g = golden::kKofidisRegaliaSpectrum[0];
  std::vector<double> x(g.x.begin(), g.x.end());

  // Correct pair passes.
  EXPECT_TRUE(oracle.check(g.lambda, std::span<const double>(x.data(), 3)));
  // Wrong eigenvalue with the right vector fails.
  EXPECT_FALSE(
      oracle.check(g.lambda + 0.05, std::span<const double>(x.data(), 3)));
  // Perturbed vector (re-normalized, beyond vector_tol) fails.
  std::vector<double> xb = x;
  xb[0] += 0.05;
  normalize(std::span<double>(xb.data(), xb.size()));
  EXPECT_FALSE(oracle.check(g.lambda, std::span<const double>(xb.data(), 3)));

  // A doctored Result inside an otherwise clean batch flips clean() off.
  kernels::BoundKernels<double> k(a, Tier::kGeneral);
  sshopm::Options opt;
  opt.alpha = 1.0;
  opt.tolerance = 1e-10;
  opt.max_iterations = 1000;
  std::vector<sshopm::Result<double>> runs;
  for (const auto& x0 : fibonacci_sphere<double>(8)) {
    runs.push_back(sshopm::solve(k, {x0.data(), x0.size()}, opt));
  }
  const auto clean_rep = verify_results(oracle, runs);
  ASSERT_TRUE(clean_rep.clean());
  auto bad = runs[0];
  bad.lambda += 0.1;  // converged flag stays true: a plausible wrong claim
  runs.push_back(bad);
  const auto rep = verify_results(oracle, runs);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.mismatched, 1);
  EXPECT_EQ(rep.checked, clean_rep.checked + 1);
}

TEST(DifferentialOracle, QrstSelfChecksAgainstItsOwnOracle) {
  // Closing the loop: the pairs QRST reports must pass the oracle built
  // from the same tensor (consistency of match() with the spectrum), for
  // both fixture families.
  for (const auto& f : golden::kRankOneFixtures) {
    const Oracle<double> oracle(golden::make_rank_one<double>(f));
    for (const auto& p : oracle.spectrum().pairs) {
      EXPECT_TRUE(
          oracle.check(p.lambda, std::span<const double>(p.x.data(),
                                                         p.x.size())))
          << "order " << f.order << " lambda=" << p.lambda;
    }
  }
}

#if TE_OBS_ENABLED
TEST(DifferentialOracle, ObsCountersTrackMatchesAndMismatches) {
  const auto a = kofidis_regalia_example<double>();
  const Oracle<double> oracle(a);
  auto& reg = obs::global();
  const auto checks0 = reg.counter("decomp.oracle.checks").value();
  const auto match0 = reg.counter("decomp.oracle.matches").value();
  const auto mis0 = reg.counter("decomp.oracle.mismatches").value();

  const auto& g = golden::kKofidisRegaliaSpectrum[0];
  const std::vector<double> x(g.x.begin(), g.x.end());
  ASSERT_TRUE(oracle.check(g.lambda, std::span<const double>(x.data(), 3)));
  ASSERT_FALSE(
      oracle.check(g.lambda + 0.3, std::span<const double>(x.data(), 3)));

  EXPECT_EQ(reg.counter("decomp.oracle.checks").value(), checks0 + 2);
  EXPECT_EQ(reg.counter("decomp.oracle.matches").value(), match0 + 1);
  EXPECT_EQ(reg.counter("decomp.oracle.mismatches").value(), mis0 + 1);
}
#endif  // TE_OBS_ENABLED

}  // namespace
}  // namespace te::decomp
