// Golden-eigenpair regression: every backend (one-shot and scheduled) and
// every applicable kernel tier must recover the committed fixture
// eigenpairs (tests/golden_eigenpairs.hpp) -- the Kofidis-Regalia example's
// local maxima and the analytic rank-one pairs.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "golden_eigenpairs.hpp"
#include "te/batch/scheduler.hpp"
#include "te/util/sphere.hpp"

namespace te::batch {
namespace {

using golden::GoldenPair;
using golden::kKofidisRegaliaMaxima;
using golden::kRankOneFixtures;
using kernels::Tier;

constexpr std::array<Backend, 3> kBackends = {
    Backend::kCpuSequential, Backend::kCpuParallel, Backend::kGpuSim};

[[nodiscard]] bool tier_supported(Backend b, Tier tier) {
  return b == Backend::kGpuSim ? kernels::runs_on_device(tier)
                               : kernels::runs_on_host(tier);
}

/// Solve via the scheduler (all backends share this entry point, which the
/// differential suite proves bitwise-equal to the one-shot calls).
template <Real T>
[[nodiscard]] BatchResult<T> run_backend(Backend b, const BatchProblem<T>& p,
                                         Tier tier) {
  SchedulerOptions opt;
  opt.chunk_tensors = 2;  // exercise chunking even on tiny fixture jobs
  Scheduler<T> sched(b, opt);
  const JobId id = sched.submit(p, tier);
  sched.run();
  return sched.result(id);
}

/// True when `pairs` contains the golden pair (lambda and, up to the
/// odd-order sign pairing, the eigenvector) within tolerance.
template <Real T>
[[nodiscard]] bool contains_pair(const std::vector<sshopm::Eigenpair<T>>& pairs,
                                 const GoldenPair& g, int order,
                                 double lambda_tol, double x_tol) {
  // Equivalent representations of one pair: odd order pairs (lambda, x)
  // with (-lambda, -x); even order pairs (lambda, x) with (lambda, -x).
  const bool odd = order % 2 != 0;
  const std::array<std::pair<double, double>, 2> forms = {{
      {g.lambda, 1.0},
      {odd ? -g.lambda : g.lambda, -1.0},
  }};
  for (const auto& p : pairs) {
    for (const auto& [lam, sign] : forms) {
      if (std::abs(static_cast<double>(p.lambda) - lam) > lambda_tol) continue;
      double d = 0;
      for (std::size_t i = 0; i < 3; ++i) {
        const double e = static_cast<double>(p.x[i]) - sign * g.x[i];
        d += e * e;
      }
      if (std::sqrt(d) <= x_tol) return true;
    }
  }
  return false;
}

template <Real T>
void check_kofidis_regalia(Backend backend, Tier tier, double lambda_tol,
                           double x_tol) {
  BatchProblem<T> p;
  p.order = 3;
  p.dim = 3;
  p.tensors = {kofidis_regalia_example<T>()};
  p.starts = fibonacci_sphere<T>(24);
  p.options.alpha = 1.0;  // convex shift: monotone convergence to maxima
  p.options.tolerance = 1e-10;
  p.options.max_iterations = 1000;
  const auto r = run_backend(backend, p, tier);

  sshopm::MultiStartOptions mopt;
  mopt.inner = p.options;
  const auto lists = extract_eigenpairs(p, r, mopt);
  ASSERT_EQ(lists.size(), 1u);
  const std::string ctx = std::string(backend_name(backend)) + "/" +
                          std::string(kernels::tier_name(tier));
  for (const auto& g : kKofidisRegaliaMaxima) {
    EXPECT_TRUE(contains_pair(lists[0], g, 3, lambda_tol, x_tol))
        << ctx << ": missing golden pair lambda=" << g.lambda;
  }
}

TEST(GoldenKofidisRegalia, AllBackendsAllTiersDouble) {
  for (Backend b : kBackends) {
    for (Tier tier : {Tier::kGeneral, Tier::kPrecomputed, Tier::kBlocked,
                      Tier::kUnrolled}) {
      if (!tier_supported(b, tier)) continue;
      check_kofidis_regalia<double>(b, tier, 1e-6, 1e-5);
    }
  }
}

TEST(GoldenKofidisRegalia, AllBackendsAllTiersFloat) {
  for (Backend b : kBackends) {
    for (Tier tier : {Tier::kGeneral, Tier::kPrecomputed, Tier::kBlocked,
                      Tier::kUnrolled}) {
      if (!tier_supported(b, tier)) continue;
      check_kofidis_regalia<float>(b, tier, 5e-3, 5e-3);
    }
  }
}

TEST(GoldenKofidisRegalia, PairsAreLocalMaximaWithResidualBound) {
  const auto a = kofidis_regalia_example<double>();
  const auto starts = fibonacci_sphere<double>(24);
  sshopm::MultiStartOptions mopt;
  mopt.inner.alpha = 1.0;
  mopt.inner.tolerance = 1e-12;
  mopt.inner.max_iterations = 2000;
  mopt.refine_newton = true;
  const auto pairs = sshopm::find_eigenpairs(
      a, Tier::kGeneral,
      std::span<const std::vector<double>>(starts.data(), starts.size()),
      mopt);
  for (const auto& g : kKofidisRegaliaMaxima) {
    bool found = false;
    for (const auto& p : pairs) {
      if (std::abs(p.lambda - g.lambda) < 1e-8) {
        found = true;
        EXPECT_EQ(p.type, sshopm::SpectralType::kLocalMax)
            << "lambda=" << g.lambda;
        EXPECT_LT(p.worst_residual, golden::kGoldenResidual);
      }
    }
    EXPECT_TRUE(found) << "lambda=" << g.lambda;
  }
}

template <Real T>
void check_rank_one(Backend backend, Tier tier, double lambda_tol) {
  for (const auto& f : kRankOneFixtures) {
    if (tier == Tier::kUnrolled &&
        kernels::find_unrolled<T>(f.order, 3) == nullptr) {
      continue;
    }
    BatchProblem<T> p;
    p.order = f.order;
    p.dim = 3;
    p.tensors = {golden::make_rank_one<T>(f)};
    // Start exactly at the eigenvector: SS-HOPM is stationary there, so
    // the reported lambda is the analytic one up to rounding.
    p.starts = {{static_cast<T>(f.x[0]), static_cast<T>(f.x[1]),
                 static_cast<T>(f.x[2])}};
    p.options.alpha = 1.0;
    // At the fixed point lambda still jitters by a few ulps of |lambda|, so
    // the convergence bound must scale with the working precision (the
    // default 1e-7 is below one float ulp of these eigenvalues).
    p.options.tolerance = 32 * std::numeric_limits<T>::epsilon();
    const auto r = run_backend(backend, p, tier);
    const std::string ctx = std::string(backend_name(backend)) + "/" +
                            std::string(kernels::tier_name(tier)) +
                            " order " + std::to_string(f.order);
    ASSERT_TRUE(r.at(0, 0).converged) << ctx;
    EXPECT_NEAR(static_cast<double>(r.at(0, 0).lambda), f.lambda, lambda_tol)
        << ctx;
  }
}

TEST(GoldenRankOne, AnalyticPairsAcrossBackendsAndTiers) {
  for (Backend b : kBackends) {
    for (Tier tier : {Tier::kGeneral, Tier::kPrecomputed, Tier::kBlocked,
                      Tier::kUnrolled}) {
      if (!tier_supported(b, tier)) continue;
      check_rank_one<double>(b, tier, 1e-10);
      check_rank_one<float>(b, tier, 1e-4);
    }
  }
}

}  // namespace
}  // namespace te::batch
