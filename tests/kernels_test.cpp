// Kernel correctness: every symmetric tier (general / precomputed /
// unrolled) is checked against the dense brute-force oracle over a
// parameterized sweep of shapes, in both precisions; plus the flop model,
// operation tallies, and the dispatch facade.

#include <gtest/gtest.h>

#include <vector>

#include "te/kernels/dense.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/kernels/flop_model.hpp"
#include "te/kernels/general.hpp"
#include "te/kernels/precomputed.hpp"
#include "te/kernels/unrolled.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"

namespace te::kernels {
namespace {

// ---------------------------------------------------------------------------
// Parameterized shape sweep: all tiers vs the dense oracle.
// ---------------------------------------------------------------------------

class KernelShapeTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  [[nodiscard]] static std::vector<double> random_unit(int n,
                                                       std::uint64_t s) {
    CounterRng rng(s);
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] =
          rng.in(1, static_cast<std::uint64_t>(i), -1.0, 1.0);
    }
    return x;
  }
};

TEST_P(KernelShapeTest, GeneralTtsv0MatchesDenseOracle) {
  const auto [m, n] = GetParam();
  CounterRng rng(100);
  auto a = random_symmetric_tensor<double>(rng, 0, m, n);
  auto d = to_dense(a);
  auto x = random_unit(n, 7);
  const double sym = ttsv0_general(a, {x.data(), x.size()});
  const double dense = ttsv0_dense_naive(d, {x.data(), x.size()});
  EXPECT_NEAR(sym, dense, 1e-9 * std::max(1.0, std::abs(dense)));
}

TEST_P(KernelShapeTest, GeneralTtsv1MatchesDenseOracle) {
  const auto [m, n] = GetParam();
  CounterRng rng(101);
  auto a = random_symmetric_tensor<double>(rng, 0, m, n);
  auto d = to_dense(a);
  auto x = random_unit(n, 8);
  std::vector<double> ys(static_cast<std::size_t>(n)),
      yd(static_cast<std::size_t>(n));
  ttsv1_general(a, {x.data(), x.size()}, {ys.data(), ys.size()});
  ttsv1_dense_naive(d, {x.data(), x.size()}, {yd.data(), yd.size()});
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(ys[static_cast<std::size_t>(i)], yd[static_cast<std::size_t>(i)],
                1e-9 * std::max(1.0, std::abs(yd[static_cast<std::size_t>(i)])))
        << "entry " << i;
  }
}

TEST_P(KernelShapeTest, PrecomputedMatchesGeneral) {
  const auto [m, n] = GetParam();
  CounterRng rng(102);
  auto a = random_symmetric_tensor<double>(rng, 1, m, n);
  KernelTables<double> tab(m, n);
  auto x = random_unit(n, 9);
  EXPECT_NEAR(ttsv0_precomputed(a, tab, {x.data(), x.size()}),
              ttsv0_general(a, {x.data(), x.size()}), 1e-12);
  std::vector<double> yp(static_cast<std::size_t>(n)),
      yg(static_cast<std::size_t>(n));
  ttsv1_precomputed(a, tab, {x.data(), x.size()}, {yp.data(), yp.size()});
  ttsv1_general(a, {x.data(), x.size()}, {yg.data(), yg.size()});
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(yp[static_cast<std::size_t>(i)],
                yg[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST_P(KernelShapeTest, UnrolledMatchesGeneralWhenRegistered) {
  const auto [m, n] = GetParam();
  const auto* entry = find_unrolled<double>(m, n);
  if (entry == nullptr) GTEST_SKIP() << "shape not in unrolled registry";
  CounterRng rng(103);
  auto a = random_symmetric_tensor<double>(rng, 2, m, n);
  auto x = random_unit(n, 10);
  EXPECT_NEAR(entry->ttsv0(a.values().data(), x.data()),
              ttsv0_general(a, {x.data(), x.size()}), 1e-10);
  std::vector<double> yu(static_cast<std::size_t>(n)),
      yg(static_cast<std::size_t>(n));
  entry->ttsv1(a.values().data(), x.data(), yu.data());
  ttsv1_general(a, {x.data(), x.size()}, {yg.data(), yg.size()});
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(yu[static_cast<std::size_t>(i)],
                yg[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST_P(KernelShapeTest, DenseContractionMatchesNaive) {
  const auto [m, n] = GetParam();
  CounterRng rng(104);
  auto a = random_symmetric_tensor<double>(rng, 3, m, n);
  auto d = to_dense(a);
  auto x = random_unit(n, 11);
  EXPECT_NEAR(ttsv0_dense_contract(d, {x.data(), x.size()}),
              ttsv0_dense_naive(d, {x.data(), x.size()}), 1e-9);
  if (m >= 2) {
    std::vector<double> yc(static_cast<std::size_t>(n)),
        yn(static_cast<std::size_t>(n));
    ttsv1_dense_contract(d, {x.data(), x.size()}, {yc.data(), yc.size()});
    ttsv1_dense_naive(d, {x.data(), x.size()}, {yn.data(), yn.size()});
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(yc[static_cast<std::size_t>(i)],
                  yn[static_cast<std::size_t>(i)], 1e-9);
    }
  }
}

TEST_P(KernelShapeTest, Ttsv2MatchesDenseOracle) {
  const auto [m, n] = GetParam();
  if (m < 2) GTEST_SKIP();
  CounterRng rng(105);
  auto a = random_symmetric_tensor<double>(rng, 4, m, n);
  auto d = to_dense(a);
  auto x = random_unit(n, 12);
  const auto bs = ttsv2_general(a, {x.data(), x.size()});
  const auto bd = ttsv2_dense_naive(d, {x.data(), x.size()});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(bs(i, j), bd(i, j), 1e-9) << "(" << i << "," << j << ")";
    }
  }
}

TEST_P(KernelShapeTest, MatrixVectorConsistency) {
  // ttsv0 == x . ttsv1(x): A x^m = x^T (A x^{m-1}).
  const auto [m, n] = GetParam();
  if (m < 2) GTEST_SKIP();
  CounterRng rng(106);
  auto a = random_symmetric_tensor<double>(rng, 5, m, n);
  auto x = random_unit(n, 13);
  std::vector<double> y(static_cast<std::size_t>(n));
  ttsv1_general(a, {x.data(), x.size()}, {y.data(), y.size()});
  double dot_ = 0;
  for (int i = 0; i < n; ++i) {
    dot_ += x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(dot_, ttsv0_general(a, {x.data(), x.size()}), 1e-10);
}

TEST_P(KernelShapeTest, Ttsv1IsGradientScaledByM) {
  // grad(A x^m) = m A x^{m-1}: finite-difference check of the kernels.
  const auto [m, n] = GetParam();
  CounterRng rng(107);
  auto a = random_symmetric_tensor<double>(rng, 6, m, n);
  auto x = random_unit(n, 14);
  std::vector<double> y(static_cast<std::size_t>(n));
  ttsv1_general(a, {x.data(), x.size()}, {y.data(), y.size()});
  const double h = 1e-6;
  for (int i = 0; i < n; ++i) {
    auto xp = x, xm = x;
    xp[static_cast<std::size_t>(i)] += h;
    xm[static_cast<std::size_t>(i)] -= h;
    const double fd = (ttsv0_general(a, {xp.data(), xp.size()}) -
                       ttsv0_general(a, {xm.data(), xm.size()})) /
                      (2 * h);
    EXPECT_NEAR(fd, m * y[static_cast<std::size_t>(i)], 1e-4)
        << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelShapeTest,
    ::testing::Values(std::pair{1, 3}, std::pair{2, 2}, std::pair{2, 5},
                      std::pair{3, 2}, std::pair{3, 3}, std::pair{3, 4},
                      std::pair{4, 3}, std::pair{4, 5}, std::pair{5, 3},
                      std::pair{6, 3}, std::pair{6, 4}, std::pair{2, 8},
                      std::pair{8, 3}),
    [](const auto& p) {
      return "m" + std::to_string(p.param.first) + "n" +
             std::to_string(p.param.second);
    });

// ---------------------------------------------------------------------------
// Float-precision parity: all tiers agree to single-precision accuracy.
// ---------------------------------------------------------------------------

TEST(KernelsFloat, TiersAgreeOnApplicationShape) {
  CounterRng rng(200);
  auto a = random_symmetric_tensor<float>(rng, 0, 4, 3);
  KernelTables<float> tab(4, 3);
  const auto* entry = find_unrolled<float>(4, 3);
  ASSERT_NE(entry, nullptr);
  std::vector<float> x = {0.6f, -0.3f, 0.74f};
  const float g = ttsv0_general(a, {x.data(), x.size()});
  const float p = ttsv0_precomputed(a, tab, {x.data(), x.size()});
  const float u = entry->ttsv0(a.values().data(), x.data());
  EXPECT_NEAR(g, p, 1e-5f);
  EXPECT_NEAR(g, u, 1e-5f);
}

// ---------------------------------------------------------------------------
// Operation tallies and the flop model.
// ---------------------------------------------------------------------------

TEST(FlopModel, StorageMatchesTableII) {
  // Table II: symmetric storage = n^m/m! + O(n^{m-1}); exact values.
  EXPECT_EQ(storage_dense(4, 3), 81);
  EXPECT_EQ(storage_symmetric(4, 3), 15);
  EXPECT_EQ(storage_dense(3, 4), 64);
  EXPECT_EQ(storage_symmetric(3, 4), 20);
  // Compression approaches m! for large n.
  const double ratio = static_cast<double>(storage_dense(4, 40)) /
                       static_cast<double>(storage_symmetric(4, 40));
  EXPECT_GT(ratio, 0.75 * 24);  // m! = 24
  EXPECT_LT(ratio, 24.0);
}

TEST(FlopModel, DenseKernelFlops) {
  // sum_{q=1..m} 2 n^q.
  EXPECT_EQ(flops_dense_ttsv0(2, 3), 2 * (3 + 9));
  EXPECT_EQ(flops_dense_ttsv0(4, 3), 2 * (3 + 9 + 27 + 81));
  EXPECT_EQ(flops_dense_ttsv1(4, 3), 2 * (9 + 27 + 81));
}

TEST(FlopModel, SymmetricFlopsScaleWithClasses) {
  const auto c0 = flops_symmetric_ttsv0(4, 3);
  // 15 classes, each m-1=3 product multiplies + <=2 scaling + 1 add.
  EXPECT_GE(c0.fmul, 15 * 4);
  EXPECT_LE(c0.fmul, 15 * 5);
  EXPECT_EQ(c0.fadd, 15);
  const auto c1 = flops_symmetric_ttsv1(4, 3);
  EXPECT_EQ(c1.fadd, num_contributions(4, 3));
}

TEST(FlopModel, SymmetricBeatsDenseByNearlyFactorial) {
  // Table II's headline: symmetric kernels cost ~ m!/m of the dense cost
  // for large n. Check the trend at a few shapes.
  for (const auto& [m, n] : {std::pair{3, 10}, {4, 8}}) {
    const double dense = static_cast<double>(flops_dense_ttsv0(m, n));
    const double sym = static_cast<double>(flops_symmetric_ttsv0(m, n).flops());
    EXPECT_GT(dense / sym,
              static_cast<double>(comb::factorial(m)) / (2.0 * m))
        << "m=" << m << " n=" << n;
  }
}

TEST(FlopModel, IterationFlopsComposeKernels) {
  const auto it = flops_sshopm_iteration(4, 3);
  const auto k0 = flops_symmetric_ttsv0(4, 3);
  const auto k1 = flops_symmetric_ttsv1(4, 3);
  // Vector bookkeeping adds 3n fmul + 2n fadd + 1 sfu = 5n + 1 flops.
  EXPECT_EQ(it.flops(), k0.flops() + k1.flops() + 5 * 3 + 1);
}

TEST(Tallies, GeneralKernelsCountWhatTheyDo) {
  CounterRng rng(300);
  auto a = random_symmetric_tensor<double>(rng, 0, 4, 3);
  std::vector<double> x = {0.1, 0.2, 0.3};
  OpCounts ops;
  (void)ttsv0_general(a, {x.data(), x.size()}, &ops);
  EXPECT_EQ(ops.fadd, a.num_unique());          // one accumulate per class
  EXPECT_EQ(ops.fmul, a.num_unique() * (3 + 2));  // m-1 products + 2 scalings
  EXPECT_GT(ops.iop, 0);

  OpCounts ops1;
  std::vector<double> y(3);
  ttsv1_general(a, {x.data(), x.size()}, {y.data(), y.size()}, &ops1);
  EXPECT_EQ(ops1.fadd, num_contributions(4, 3));
}

TEST(Tallies, UnrolledOpsMatchRuntimeModel) {
  // The constexpr per-call counts must agree with the runtime flop model's
  // floating-point totals.
  constexpr auto u0 = ttsv0_unrolled_ops<4, 3>();
  const auto r0 = flops_symmetric_ttsv0(4, 3);
  EXPECT_EQ(u0.fmul, r0.fmul);
  EXPECT_EQ(u0.fadd, r0.fadd);
  constexpr auto u1 = ttsv1_unrolled_ops<4, 3>();
  const auto r1 = flops_symmetric_ttsv1(4, 3);
  EXPECT_EQ(u1.fmul, r1.fmul);
  EXPECT_EQ(u1.fadd, r1.fadd);
}

// ---------------------------------------------------------------------------
// Unrolled table invariants.
// ---------------------------------------------------------------------------

TEST(UnrolledTable, CountsMatchRuntime) {
  EXPECT_EQ((UnrolledTable<4, 3>::kU), comb::num_unique_entries(4, 3));
  EXPECT_EQ((UnrolledTable<4, 3>::kS), num_contributions(4, 3));
  EXPECT_EQ((UnrolledTable<3, 4>::kU), 20);
  EXPECT_EQ((UnrolledTable<2, 5>::kU), 15);
}

TEST(UnrolledTable, PaperTermCounts) {
  // Paper Sec. V-D: for m=4, n=3 the A x^m summation has 15 terms and each
  // of the three A x^{m-1} output sums has 10 terms.
  constexpr const auto& tab = kUnrolledTable<4, 3>;
  EXPECT_EQ(tab.kU, 15);
  int per_output[3] = {0, 0, 0};
  for (std::int64_t s = 0; s < tab.kS; ++s) ++per_output[tab.c_out[s]];
  EXPECT_EQ(per_output[0], 10);
  EXPECT_EQ(per_output[1], 10);
  EXPECT_EQ(per_output[2], 10);
}

TEST(UnrolledTable, CoefficientsMatchRuntime) {
  constexpr const auto& tab = kUnrolledTable<3, 4>;
  comb::IndexClassIterator it(3, 4);
  for (std::int64_t j = 0; j < tab.kU; ++j, it.next()) {
    EXPECT_EQ(tab.coeff0[j], comb::multinomial_from_index(it.index()));
    for (int t = 0; t < 3; ++t) {
      EXPECT_EQ(tab.idx[j][static_cast<std::size_t>(t)], it.index()[t]);
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch facade.
// ---------------------------------------------------------------------------

TEST(Dispatch, RegistryContainsApplicationShapes) {
  EXPECT_NE(find_unrolled<float>(4, 3), nullptr);
  EXPECT_NE(find_unrolled<double>(4, 3), nullptr);
  EXPECT_NE(find_unrolled<float>(6, 3), nullptr);
  EXPECT_EQ(find_unrolled<float>(9, 9), nullptr);
}

TEST(Dispatch, BoundKernelsAgreeAcrossTiers) {
  CounterRng rng(400);
  auto a = random_symmetric_tensor<double>(rng, 0, 4, 3);
  KernelTables<double> tab(4, 3);
  std::vector<double> x = {0.3, -0.5, 0.81};

  BoundKernels<double> kg(a, Tier::kGeneral);
  BoundKernels<double> kp(a, Tier::kPrecomputed, &tab);
  BoundKernels<double> ku(a, Tier::kUnrolled);
  const double vg = kg.ttsv0({x.data(), x.size()});
  EXPECT_NEAR(vg, kp.ttsv0({x.data(), x.size()}), 1e-12);
  EXPECT_NEAR(vg, ku.ttsv0({x.data(), x.size()}), 1e-12);

  std::vector<double> yg(3), yp(3), yu(3);
  kg.ttsv1({x.data(), x.size()}, {yg.data(), 3});
  kp.ttsv1({x.data(), x.size()}, {yp.data(), 3});
  ku.ttsv1({x.data(), x.size()}, {yu.data(), 3});
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(yg[static_cast<std::size_t>(i)],
                yp[static_cast<std::size_t>(i)], 1e-12);
    EXPECT_NEAR(yg[static_cast<std::size_t>(i)],
                yu[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Dispatch, PrecomputedRequiresTables) {
  CounterRng rng(401);
  auto a = random_symmetric_tensor<double>(rng, 0, 3, 3);
  EXPECT_THROW((BoundKernels<double>(a, Tier::kPrecomputed)),
               InvalidArgument);
  KernelTables<double> wrong(4, 3);
  EXPECT_THROW((BoundKernels<double>(a, Tier::kPrecomputed, &wrong)),
               InvalidArgument);
}

TEST(Dispatch, UnrolledRequiresRegisteredShape) {
  CounterRng rng(402);
  auto a = random_symmetric_tensor<double>(rng, 0, 7, 7);
  EXPECT_THROW((BoundKernels<double>(a, Tier::kUnrolled)), InvalidArgument);
}

TEST(Dispatch, TierNamesRoundTripThroughTheOneTierList) {
  for (const Tier t : kernels::kAllTiers) {
    EXPECT_EQ(kernels::tier_from_name(kernels::tier_name(t)), t);
    EXPECT_EQ(kernels::kAllTiers[static_cast<std::size_t>(
                  kernels::tier_index(t))],
              t);
  }
  EXPECT_EQ(kernels::tier_from_name("blocked"), Tier::kBlocked);
  EXPECT_FALSE(kernels::tier_from_name("cse").has_value());
  EXPECT_FALSE(kernels::tier_from_name("blocked_par").has_value());
  EXPECT_FALSE(kernels::tier_from_name("").has_value());
}

// Checkpoints and fingerprints persist static_cast<int>(tier). The values
// of the retired tiers (2, and 5 for blocked_par) belong to no tier, so a
// stored 5 can never decode to a live one.
TEST(Dispatch, RetiredTierValuesStayReserved) {
  EXPECT_EQ(kernels::kAllTiers.size(), 5u);
  EXPECT_EQ(kernels::kHostTiers.size(), 4u);
  for (const Tier t : kernels::kAllTiers) {
    EXPECT_NE(static_cast<int>(t), 2) << kernels::tier_name(t);
    EXPECT_NE(static_cast<int>(t), 5) << kernels::tier_name(t);
  }
}

TEST(Dispatch, EveryTierHasAPlacementAndBlockedIsDeviceOnly) {
  for (const Tier t : kernels::kAllTiers) {
    EXPECT_TRUE(kernels::runs_on_host(t) || kernels::runs_on_device(t))
        << kernels::tier_name(t);
  }
  EXPECT_FALSE(kernels::runs_on_host(Tier::kBlocked));
  EXPECT_TRUE(kernels::runs_on_device(Tier::kBlocked));
  EXPECT_TRUE(kernels::runs_on_host(Tier::kPrecomputed));
  EXPECT_FALSE(kernels::runs_on_device(Tier::kPrecomputed));
}

// dim > 64 takes the heap-accumulator fallback in ttsv1_general (and in
// ttsv1_precomputed). On exact-integer inputs every term and partial sum
// is an integer well inside double exactness, so summation order cannot
// matter and the two tiers agree bitwise.
TEST(LargeDimKernels, GeneralHeapAccumulatorMatchesPrecomputedBitwise) {
  const int m = 3;
  const int n = 96;
  const CounterRng rng(4242);
  SymmetricTensor<double> a(m, n);
  auto vals = a.values();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<double>(
        static_cast<int>(rng.in(11, i, -4.0, 4.0)));  // ints in [-4, 4]
  }
  std::vector<double> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(static_cast<int>(rng.in(12, i, -2.0, 3.0)));
  }
  const KernelTables<double> tables(m, n);
  const std::span<const double> xs{x.data(), x.size()};
  std::vector<double> y_general(static_cast<std::size_t>(n));
  std::vector<double> y_precomputed(static_cast<std::size_t>(n));
  ttsv1_general(a, xs, {y_general.data(), y_general.size()});
  ttsv1_precomputed(a, tables, xs,
                    {y_precomputed.data(), y_precomputed.size()});
  EXPECT_EQ(y_general, y_precomputed);
  EXPECT_EQ(ttsv0_general(a, xs), ttsv0_precomputed(a, tables, xs));
}

TEST(KernelTables, StorageOverheadNearPaperEstimate) {
  // Paper Sec. III-B.5: precomputation increases storage by about a factor
  // of (m + 2) in element count (index arrays of m ints + coefficients).
  KernelTables<float> tab(4, 3);
  const double elems_per_class =
      static_cast<double>(tab.table_bytes()) /
      (static_cast<double>(tab.num_classes()) * sizeof(float));
  EXPECT_GT(elems_per_class, 4.0);   // at least m
  EXPECT_LT(elems_per_class, 24.0);  // small constant factor
}

}  // namespace
}  // namespace te::kernels
