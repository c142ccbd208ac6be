// Property-based tests: randomized sweeps over seeds and shapes checking
// the algebraic identities the library's correctness rests on --
// Definition 2 in full generality (ttsv for every p), contraction-chain
// identities, homogeneity/multilinearity, Kolda & Mayo's monotone
// convergence under a dominating shift, and float/double consistency.

#include <gtest/gtest.h>

#include <filesystem>

#include "te/batch/scheduler.hpp"
#include "te/decomp/oracle.hpp"
#include "te/io/container.hpp"
#include "te/kernels/dense.hpp"
#include "te/kernels/general.hpp"
#include "te/kernels/ttsv.hpp"
#include "te/sshopm/spectrum.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"
#include "te/util/sphere.hpp"

namespace te {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, TtsvGeneralPMatchesSpecializedKernels) {
  // ttsv(A, x, p) must reproduce ttsv1 (p = 1) and ttsv2 (p = 2), and its
  // order-m case must return A itself when contracted zero times (p = m).
  CounterRng rng(GetParam());
  const int m = 4, n = 3;
  const auto a = random_symmetric_tensor<double>(rng, 0, m, n);
  const auto x = random_sphere_vector<double>(rng, 1, n);

  const auto t1 = kernels::ttsv(a, {x.data(), x.size()}, 1);
  std::vector<double> y(static_cast<std::size_t>(n));
  kernels::ttsv1_general(a, {x.data(), x.size()}, {y.data(), y.size()});
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(t1.value(i), y[static_cast<std::size_t>(i)], 1e-10);
  }

  const auto t2 = kernels::ttsv(a, {x.data(), x.size()}, 2);
  const auto b2 = kernels::ttsv2_general(a, {x.data(), x.size()});
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      EXPECT_NEAR(t2({static_cast<index_t>(i), static_cast<index_t>(j)}),
                  b2(i, j), 1e-10);
    }
  }

  const auto tm = kernels::ttsv(a, {x.data(), x.size()}, m);
  EXPECT_EQ(tm.num_unique(), a.num_unique());
  for (offset_t r = 0; r < a.num_unique(); ++r) {
    EXPECT_NEAR(tm.value(r), a.value(r), 1e-12);
  }
}

TEST_P(SeedSweep, TtsvContractionChainCommutes) {
  // Contracting p modes at once equals contracting them one at a time:
  // ttsv(ttsv(A, x, p), x, p - 1) == ttsv(A, x, p - 1).
  CounterRng rng(GetParam() + 100);
  const int m = 5, n = 3;
  const auto a = random_symmetric_tensor<double>(rng, 0, m, n);
  const auto x = random_sphere_vector<double>(rng, 1, n);
  for (int p = 2; p < m; ++p) {
    const auto ap = kernels::ttsv(a, {x.data(), x.size()}, p);
    const auto chained = kernels::ttsv(ap, {x.data(), x.size()}, p - 1);
    const auto direct = kernels::ttsv(a, {x.data(), x.size()}, p - 1);
    ASSERT_EQ(chained.num_unique(), direct.num_unique()) << "p=" << p;
    for (offset_t r = 0; r < direct.num_unique(); ++r) {
      EXPECT_NEAR(chained.value(r), direct.value(r), 1e-9)
          << "p=" << p << " r=" << r;
    }
  }
}

TEST_P(SeedSweep, TtsvMatchesDenseModeContraction) {
  // Against the dense oracle: contract the last (m - p) modes of the dense
  // expansion and compare entrywise.
  CounterRng rng(GetParam() + 200);
  const int m = 4, n = 3;
  const auto a = random_symmetric_tensor<double>(rng, 0, m, n);
  const auto x = random_sphere_vector<double>(rng, 1, n);
  auto dense = to_dense(a);
  for (int p = m - 1; p >= 2; --p) {
    dense = kernels::contract_last_mode(
        dense, std::span<const double>(x.data(), x.size()));
    const auto sym = kernels::ttsv(a, {x.data(), x.size()}, p);
    const auto sym_dense = to_dense(sym);
    ASSERT_EQ(sym_dense.size(), dense.size()) << "p=" << p;
    for (std::size_t off = 0; off < dense.size(); ++off) {
      EXPECT_NEAR(sym_dense.data()[off], dense.data()[off], 1e-9)
          << "p=" << p << " off=" << off;
    }
  }
}

TEST_P(SeedSweep, KernelsAreHomogeneous) {
  // f(c x) = c^m f(x) and Axy-linearity in A: the defining algebraic
  // properties of the homogeneous form.
  CounterRng rng(GetParam() + 300);
  const int m = 4, n = 4;
  const auto a = random_symmetric_tensor<double>(rng, 0, m, n);
  const auto b = random_symmetric_tensor<double>(rng, 1, m, n);
  const auto x = random_sphere_vector<double>(rng, 2, n);

  const double c = 1.37;
  std::vector<double> cx(x);
  for (auto& v : cx) v *= c;
  EXPECT_NEAR(kernels::ttsv0_general(a, {cx.data(), cx.size()}),
              std::pow(c, m) * kernels::ttsv0_general(a, {x.data(), x.size()}),
              1e-9);

  auto apb = a;
  apb.add_scaled(b, 2.0);
  EXPECT_NEAR(kernels::ttsv0_general(apb, {x.data(), x.size()}),
              kernels::ttsv0_general(a, {x.data(), x.size()}) +
                  2.0 * kernels::ttsv0_general(b, {x.data(), x.size()}),
              1e-9);
}

TEST_P(SeedSweep, ShiftedIterationIsMonotone) {
  // Kolda & Mayo: with alpha >= the curvature bound, lambda_k is monotone
  // nondecreasing (alpha > 0) resp. nonincreasing (alpha < 0).
  CounterRng rng(GetParam() + 400);
  const int m = 4, n = 3;
  const auto a = random_symmetric_tensor<double>(rng, 7, m, n);
  const auto x0 = random_sphere_vector<double>(rng, 8, n);
  kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);

  sshopm::Options opt;
  opt.alpha = sshopm::suggest_shift(a);
  opt.tolerance = 1e-12;
  opt.max_iterations = 50000;
  std::vector<double> trace;
  const auto r = sshopm::solve(k, {x0.data(), x0.size()}, opt, nullptr, &trace);
  ASSERT_TRUE(r.converged);
  // lambda_0 plus one accepted lambda per iteration.
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(r.iterations) + 1);
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace.back(), r.lambda);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i], trace[i - 1] - 1e-12) << "iteration " << i;
  }

  opt.alpha = -opt.alpha;
  const auto rneg =
      sshopm::solve(k, {x0.data(), x0.size()}, opt, nullptr, &trace);
  ASSERT_TRUE(rneg.converged);
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(rneg.iterations) + 1);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] + 1e-12) << "iteration " << i;
  }
}

TEST_P(SeedSweep, FloatAgreesWithDoubleToSinglePrecision) {
  CounterRng rng(GetParam() + 500);
  const int m = 4, n = 3;
  const auto ad = random_symmetric_tensor<double>(rng, 3, m, n);
  SymmetricTensor<float> af(m, n);
  for (offset_t r = 0; r < ad.num_unique(); ++r) {
    af.value(r) = static_cast<float>(ad.value(r));
  }
  const auto xd = random_sphere_vector<double>(rng, 4, n);
  std::vector<float> xf(xd.begin(), xd.end());

  EXPECT_NEAR(static_cast<double>(
                  kernels::ttsv0_general(af, {xf.data(), xf.size()})),
              kernels::ttsv0_general(ad, {xd.data(), xd.size()}), 2e-5);
}

TEST_P(SeedSweep, EigenpairsSatisfyDefinitionAcrossShapes) {
  // Definition 3 checked on whatever SS-HOPM finds, for several shapes.
  CounterRng rng(GetParam() + 600);
  for (const auto& [m, n] : {std::pair{3, 4}, {4, 4}, {5, 3}}) {
    const auto a = random_symmetric_tensor<double>(
        rng, static_cast<std::uint64_t>(m * 8 + n), m, n);
    const auto x0 = random_sphere_vector<double>(rng, 9, n);
    kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);
    sshopm::Options opt;
    opt.alpha = sshopm::suggest_shift(a);
    opt.tolerance = 1e-12;
    opt.max_iterations = 100000;
    const auto r = sshopm::solve(k, {x0.data(), x0.size()}, opt);
    ASSERT_TRUE(r.converged) << "m=" << m << " n=" << n;
    // ||x|| = 1 and A x^{m-1} = lambda x.
    EXPECT_NEAR(nrm2(std::span<const double>(r.x.data(), r.x.size())), 1.0,
                1e-12);
    EXPECT_LT(sshopm::eigen_residual(k, r.lambda, {r.x.data(), r.x.size()}),
              1e-5)
        << "m=" << m << " n=" << n;
  }
}

TEST_P(SeedSweep, SchedulerIsBitwiseEqualToOneShotBackends) {
  // Differential property: over randomized (order, dim, num_tensors,
  // num_starts, chunk_size), the streaming scheduler reproduces its
  // backend's one-shot entry point bit-for-bit -- chunking, table sharing
  // and pipelining must never perturb a single result.
  const std::uint64_t seed = GetParam();
  CounterRng rng(seed + 700);
  const int order = 3 + static_cast<int>(rng.at(0, 0) % 2);     // 3..4
  const int dim = 2 + static_cast<int>(rng.at(0, 1) % 4);       // 2..5
  const int num_tensors = 1 + static_cast<int>(rng.at(0, 2) % 7);
  const int num_starts = 1 + static_cast<int>(rng.at(0, 3) % 5);
  const int chunk = 1 + static_cast<int>(rng.at(0, 4) % (num_tensors + 2));

  auto p = batch::BatchProblem<double>::random(seed + 701, num_tensors,
                                               num_starts, order, dim);
  p.options.alpha = 1.0;

  batch::SchedulerOptions opt;
  opt.chunk_tensors = chunk;
  // The table tiers, so every path reads KernelTables.
  const auto cpu_tier = kernels::Tier::kPrecomputed;
  const auto gpu_tier = kernels::Tier::kBlocked;

  // CPU backends against the sequential one-shot reference.
  const auto cpu_ref = batch::solve_cpu_sequential(p, cpu_tier);
  for (const auto backend :
       {batch::Backend::kCpuSequential, batch::Backend::kCpuParallel}) {
    batch::Scheduler<double> sched(backend, opt);
    const auto id = sched.submit(p, cpu_tier);
    sched.run();
    const auto& got = sched.result(id).results;
    ASSERT_EQ(cpu_ref.results.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(cpu_ref.results[i].lambda, got[i].lambda)
          << "backend " << batch::backend_name(backend) << " slot " << i
          << " shape (" << order << "," << dim << ") chunk " << chunk;
      EXPECT_EQ(cpu_ref.results[i].x, got[i].x);
      EXPECT_EQ(cpu_ref.results[i].iterations, got[i].iterations);
    }
  }

  // GPU-sim backend against its own one-shot launch.
  const auto gpu_ref = batch::solve_gpusim(p, gpu_tier);
  batch::Scheduler<double> sched(batch::Backend::kGpuSim, opt);
  const auto id = sched.submit(p, gpu_tier);
  sched.run();
  const auto& got = sched.result(id).results;
  ASSERT_EQ(gpu_ref.results.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(gpu_ref.results[i].lambda, got[i].lambda)
        << "gpusim slot " << i << " shape (" << order << "," << dim
        << ") chunk " << chunk;
    EXPECT_EQ(gpu_ref.results[i].x, got[i].x);
    EXPECT_EQ(gpu_ref.results[i].iterations, got[i].iterations);
  }
  // Pipelining hides transfer; it can never add time.
  EXPECT_LE(sched.job_pipeline(id).overlapped_seconds,
            sched.job_pipeline(id).serialized_seconds + 1e-15);
}

TEST_P(SeedSweep, ContainerRoundTripIsBitwiseOnBothReadPaths) {
  // Persistence property: for randomized shapes, a tensor batch pushed
  // through the TETC container comes back bitwise identical, and the
  // solver produces bitwise-identical results from the reloaded tensors.
  const std::uint64_t seed = GetParam();
  CounterRng rng(seed + 800);
  const int order = 3 + static_cast<int>(rng.at(0, 0) % 3);  // 3..5
  const int dim = 2 + static_cast<int>(rng.at(0, 1) % 4);    // 2..5
  const int count = 1 + static_cast<int>(rng.at(0, 2) % 6);

  std::vector<SymmetricTensor<double>> tensors;
  for (int i = 0; i < count; ++i) {
    tensors.push_back(random_symmetric_tensor<double>(
        rng, 10 + static_cast<std::uint64_t>(i), order, dim));
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("te_prop_roundtrip_" + std::to_string(seed) + ".tetc"))
          .string();
  io::save_tensors<double>(
      path, std::span<const SymmetricTensor<double>>(tensors));

  const auto streamed = io::load_tensors<double>(path);
  ASSERT_EQ(streamed.size(), tensors.size());
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    EXPECT_EQ(streamed[i], tensors[i]) << "streamed " << i;
  }

  // Solving from the reloaded batch is bitwise the same computation.
  const auto x0 = random_sphere_vector<double>(rng, 99, dim);
  sshopm::Options opt;
  opt.alpha = 1.0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    kernels::BoundKernels<double> ka(tensors[i], kernels::Tier::kGeneral);
    kernels::BoundKernels<double> kb(streamed[i], kernels::Tier::kGeneral);
    const auto ra = sshopm::solve(ka, {x0.data(), x0.size()}, opt);
    const auto rb = sshopm::solve(kb, {x0.data(), x0.size()}, opt);
    EXPECT_EQ(ra.lambda, rb.lambda) << "tensor " << i;
    EXPECT_EQ(ra.x, rb.x) << "tensor " << i;
    EXPECT_EQ(ra.iterations, rb.iterations) << "tensor " << i;
  }
  std::filesystem::remove(path);
}

TEST_P(SeedSweep, ConvergedSshopmPairsBelongToQrstSpectrum) {
  // Differential completeness property on random tensors (odd and even
  // order, n <= 6): every pair SS-HOPM converges to must be a member of
  // the QRST spectrum, and after Newton refinement its residual must reach
  // golden precision (1e-8). Everything is seeded, so this is a
  // deterministic gate, not a flaky sample.
  const std::uint64_t seed = GetParam();
  CounterRng rng(seed + 900);
  for (const auto& [m, n] : {std::pair{3, 5}, {4, 4}, {3, 3}, {4, 6}}) {
    const auto a = random_symmetric_tensor<double>(
        rng, static_cast<std::uint64_t>(m * 16 + n), m, n);
    const decomp::Oracle<double> oracle(a);

    std::vector<std::vector<double>> starts;
    for (int i = 0; i < 12; ++i) {
      starts.push_back(random_sphere_vector<double>(
          rng, 1000 + static_cast<std::uint64_t>(i), n));
    }

    // Raw fixed-shift runs against the oracle.
    kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);
    sshopm::Options opt;
    opt.alpha = sshopm::suggest_shift(a);
    opt.tolerance = 1e-12;
    opt.max_iterations = 100000;
    std::vector<sshopm::Result<double>> runs;
    for (const auto& x0 : starts) {
      runs.push_back(sshopm::solve(k, {x0.data(), x0.size()}, opt));
    }
    const auto rep = decomp::verify_results(oracle, runs);
    EXPECT_EQ(rep.mismatched, 0)
        << "m=" << m << " n=" << n << ": " << rep.mismatched << " of "
        << rep.checked << " converged pairs missing from QRST spectrum";
    EXPECT_GT(rep.checked, 0) << "m=" << m << " n=" << n;

    // Refined multi-start pairs reach golden precision and stay members.
    sshopm::MultiStartOptions mopt;
    mopt.inner = opt;
    mopt.refine_newton = true;
    mopt.classify_pairs = false;
    const auto pairs = sshopm::find_eigenpairs(
        a, kernels::Tier::kGeneral,
        std::span<const std::vector<double>>(starts.data(), starts.size()),
        mopt);
    for (const auto& p : pairs) {
      EXPECT_LE(static_cast<double>(p.worst_residual), 1e-8)
          << "m=" << m << " n=" << n << " lambda=" << p.lambda;
      EXPECT_TRUE(oracle.check(
          p.lambda, std::span<const double>(p.x.data(), p.x.size())))
          << "m=" << m << " n=" << n << " lambda=" << p.lambda;
    }
  }
}

TEST_P(SeedSweep, QrstPairCountStableAcrossRepeatedRuns) {
  // The QRST spectrum of a random tensor is a pure function of (tensor,
  // options): pair count, eigenvalues and vectors repeat bitwise.
  const std::uint64_t seed = GetParam();
  CounterRng rng(seed + 950);
  for (const int m : {3, 4}) {
    const auto a = random_symmetric_tensor<double>(
        rng, static_cast<std::uint64_t>(m), m, 4);
    const auto s1 = decomp::qrst_spectrum(a);
    const auto s2 = decomp::qrst_spectrum(a);
    ASSERT_EQ(s1.pairs.size(), s2.pairs.size()) << "m=" << m;
    EXPECT_EQ(s1.has_zero_class, s2.has_zero_class) << "m=" << m;
    for (std::size_t i = 0; i < s1.pairs.size(); ++i) {
      EXPECT_EQ(s1.pairs[i].lambda, s2.pairs[i].lambda) << "m=" << m;
      EXPECT_EQ(s1.pairs[i].x, s2.pairs[i].x) << "m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull, 55ull,
                                           89ull, 144ull, 233ull),
                         [](const auto& pi) {
                           return "seed" + std::to_string(pi.param);
                         });

// ---------------------------------------------------------------------------
// Degenerate-shape edge cases (not seed-dependent).
// ---------------------------------------------------------------------------

TEST(EdgeCases, DimensionOneTensor) {
  // n = 1: a single value; the only unit vectors are +-1.
  SymmetricTensor<double> a(4, 1);
  a.value(0) = 3.5;
  std::vector<double> x = {1.0};
  EXPECT_DOUBLE_EQ(kernels::ttsv0_general(a, {x.data(), 1}), 3.5);
  std::vector<double> y(1);
  kernels::ttsv1_general(a, {x.data(), 1}, {y.data(), 1});
  EXPECT_DOUBLE_EQ(y[0], 3.5);
  kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);
  sshopm::Options opt;
  const auto r = sshopm::solve(k, {x.data(), 1}, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.lambda, 3.5);
}

TEST(EdgeCases, OrderTwoIsMatrixTimesVector) {
  CounterRng rng(9);
  const int n = 4;
  const auto a = random_symmetric_tensor<double>(rng, 0, 2, n);
  const auto x = random_sphere_vector<double>(rng, 1, n);
  // ttsv1 on an order-2 tensor is the matrix-vector product.
  std::vector<double> y(static_cast<std::size_t>(n));
  kernels::ttsv1_general(a, {x.data(), x.size()}, {y.data(), y.size()});
  for (int i = 0; i < n; ++i) {
    double s = 0;
    for (int j = 0; j < n; ++j) {
      s += a({static_cast<index_t>(i), static_cast<index_t>(j)}) *
           x[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], s, 1e-12);
  }
}

TEST(EdgeCases, TtsvRejectsBadP) {
  SymmetricTensor<double> a(3, 3);
  std::vector<double> x = {1, 0, 0};
  EXPECT_THROW((void)kernels::ttsv(a, {x.data(), 3}, 0), InvalidArgument);
  EXPECT_THROW((void)kernels::ttsv(a, {x.data(), 3}, 4), InvalidArgument);
}

TEST(EdgeCases, ZeroTensorEverywhere) {
  SymmetricTensor<double> a(4, 3);
  std::vector<double> x = {0.6, 0.0, 0.8};
  EXPECT_DOUBLE_EQ(kernels::ttsv0_general(a, {x.data(), 3}), 0.0);
  kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);
  // The zero tensor maps everything to zero: with alpha = 0 the iterate
  // becomes the zero vector. The run must report the degenerate iterate
  // rather than throw (or silently produce NaNs) -- solve() executes on
  // scheduler worker threads where an escaping exception is fatal.
  sshopm::Options opt;
  const auto bad = sshopm::solve(k, {x.data(), 3}, opt);
  EXPECT_FALSE(bad.converged);
  EXPECT_EQ(bad.failure, sshopm::FailureReason::kDegenerateIterate);
  EXPECT_EQ(bad.iterations, 1);  // detected on the first update, not at 200
  // With a positive shift the update is xhat = alpha x: well-defined, and
  // every unit vector is a fixed point with lambda = 0.
  opt.alpha = 1.0;
  const auto r = sshopm::solve(k, {x.data(), 3}, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.lambda, 0.0);
}

}  // namespace
}  // namespace te
