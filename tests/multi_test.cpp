// Multi-vector (SoA) kernel tier tests: the W-lane kernels must reproduce
// the scalar tiers lane-for-lane, bitwise; the start sweep
// (sshopm::solve_starts, kSweepLanes runs in SIMD lanes) must match a lone
// solve() slot-for-slot, bitwise, with a lone run's counters and OpCounts;
// and the batch scheduler must keep that parity end to end. Plus the
// satellites that ride along: the reusable ttsv workspace, the width
// autotuner, and the te-obs-v1 gauge reader.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "te/batch/scheduler.hpp"
#include "te/jit/cache_dir.hpp"
#include "te/jit/engine.hpp"
#include "te/kernels/autotune.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/kernels/multi.hpp"
#include "te/kernels/ttsv.hpp"
#include "te/obs/export.hpp"
#include "te/sshopm/multi.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"

#ifndef TE_TEST_HOST_CXX
#define TE_TEST_HOST_CXX ""
#endif

namespace te {
namespace {

using kernels::BoundKernels;
using kernels::Tier;
using kernels::VectorBatch;

template <Real T>
VectorBatch<T> random_batch(int n, int width, std::uint64_t seed) {
  CounterRng rng(seed);
  VectorBatch<T> b(n, width);
  for (int i = 0; i < n; ++i) {
    for (int w = 0; w < width; ++w) {
      b.at(i, w) = static_cast<T>(
          rng.in(2, static_cast<std::uint64_t>(i * width + w), -1.0, 1.0));
    }
  }
  return b;
}

template <Real T>
std::vector<std::vector<T>> random_starts(int count, int n,
                                          std::uint64_t seed) {
  CounterRng rng(seed);
  std::vector<std::vector<T>> starts;
  starts.reserve(static_cast<std::size_t>(count));
  for (int v = 0; v < count; ++v) {
    std::vector<T> x(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = static_cast<T>(
          rng.in(4, static_cast<std::uint64_t>(v * n + i), -1.0, 1.0));
    }
    starts.push_back(std::move(x));
  }
  return starts;
}

// ---------------------------------------------------------------------------
// VectorBatch: SoA layout, alignment, lane round-trips.
// ---------------------------------------------------------------------------

TEST(VectorBatch, StorageIsCacheLineAligned) {
  for (int width : {2, 4, 8, 16}) {
    VectorBatch<float> bf(7, width);
    VectorBatch<double> bd(7, width);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bf.data()) %
                  simd::kBatchAlignment,
              0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bd.data()) %
                  simd::kBatchAlignment,
              0u);
  }
}

TEST(VectorBatch, LaneLoadStoreRoundTripsAndIsSoA) {
  VectorBatch<double> b(3, 4);
  const std::vector<double> x = {1.0, 2.0, 3.0};
  b.load_lane(2, {x.data(), x.size()});
  // SoA: component i of lane w sits at data[i * width + w].
  EXPECT_EQ(b.data()[0 * 4 + 2], 1.0);
  EXPECT_EQ(b.data()[1 * 4 + 2], 2.0);
  EXPECT_EQ(b.data()[2 * 4 + 2], 3.0);
  std::vector<double> back(3);
  b.store_lane(2, {back.data(), back.size()});
  EXPECT_EQ(back, x);
  // Other lanes untouched (zero-initialized).
  EXPECT_EQ(b.at(1, 0), 0.0);
}

TEST(VectorBatch, RejectsBadShapesAndLanes) {
  EXPECT_THROW(VectorBatch<float>(0, 4), InvalidArgument);
  EXPECT_THROW(VectorBatch<float>(3, 0), InvalidArgument);
  VectorBatch<float> b(3, 2);
  std::vector<float> x(3, 1.0f);
  EXPECT_THROW(b.load_lane(2, {x.data(), x.size()}), InvalidArgument);
  std::vector<float> bad(2, 1.0f);
  EXPECT_THROW(b.load_lane(0, {bad.data(), bad.size()}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Differential kernel sweep: every tier x width x shape vs the scalar path.
// ---------------------------------------------------------------------------

class MultiKernelTest : public ::testing::TestWithParam<std::pair<int, int>> {
};

// The general and precomputed multi kernels execute, per lane, exactly the
// scalar operation sequence with the same double accumulator; the lane
// product chains are pure multiplies feeding a mixed-precision add, which
// FMA contraction cannot fuse, so the match is exact.
TEST_P(MultiKernelTest, GeneralTierMatchesScalarPerLaneExactly) {
  const auto [m, n] = GetParam();
  CounterRng rng(200);
  const auto a = random_symmetric_tensor<double>(rng, 0, m, n);
  BoundKernels<double> scalar(a, Tier::kGeneral);
  for (int width : kernels::multi_widths()) {
    BoundKernels<double> multi(a, Tier::kGeneral, nullptr, width);
    ASSERT_TRUE(multi.vectorized()) << "width " << width;
    auto x = random_batch<double>(n, width, 300 + static_cast<std::uint64_t>(
                                                      width));
    std::vector<double> out(static_cast<std::size_t>(width));
    VectorBatch<double> y(n, width);
    multi.ttsv0(x, {out.data(), out.size()});
    multi.ttsv1(x, y);
    std::vector<double> sx(static_cast<std::size_t>(n)),
        sy(static_cast<std::size_t>(n));
    for (int w = 0; w < width; ++w) {
      x.store_lane(w, {sx.data(), sx.size()});
      EXPECT_EQ(out[static_cast<std::size_t>(w)],
                scalar.ttsv0({sx.data(), sx.size()}))
          << "ttsv0 width " << width << " lane " << w;
      scalar.ttsv1({sx.data(), sx.size()}, {sy.data(), sy.size()});
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(y.at(i, w), sy[static_cast<std::size_t>(i)])
            << "ttsv1 width " << width << " lane " << w << " entry " << i;
      }
    }
  }
}

TEST_P(MultiKernelTest, PrecomputedTierMatchesScalarPerLaneExactly) {
  const auto [m, n] = GetParam();
  CounterRng rng(201);
  const auto a = random_symmetric_tensor<float>(rng, 0, m, n);
  kernels::KernelTables<float> tab(m, n);
  BoundKernels<float> scalar(a, Tier::kPrecomputed, &tab);
  for (int width : kernels::multi_widths()) {
    BoundKernels<float> multi(a, Tier::kPrecomputed, &tab, width);
    ASSERT_TRUE(multi.vectorized()) << "width " << width;
    auto x = random_batch<float>(n, width, 400 + static_cast<std::uint64_t>(
                                                     width));
    std::vector<float> out(static_cast<std::size_t>(width));
    VectorBatch<float> y(n, width);
    multi.ttsv0(x, {out.data(), out.size()});
    multi.ttsv1(x, y);
    std::vector<float> sx(static_cast<std::size_t>(n)),
        sy(static_cast<std::size_t>(n));
    for (int w = 0; w < width; ++w) {
      x.store_lane(w, {sx.data(), sx.size()});
      EXPECT_EQ(out[static_cast<std::size_t>(w)],
                scalar.ttsv0({sx.data(), sx.size()}))
          << "ttsv0 width " << width << " lane " << w;
      scalar.ttsv1({sx.data(), sx.size()}, {sy.data(), sy.size()});
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(y.at(i, w), sy[static_cast<std::size_t>(i)])
            << "ttsv1 width " << width << " lane " << w << " entry " << i;
      }
    }
  }
}

// The unrolled tier accumulates in T like its scalar twin, and per lane
// the vector form is the same source expression, so it gets the same FMA
// contraction: the match is exact at every width, in float and double.
template <Real T>
void expect_unrolled_lanes_exact(int m, int n) {
  CounterRng rng(202);
  const auto a = random_symmetric_tensor<T>(rng, 0, m, n);
  BoundKernels<T> scalar(a, Tier::kUnrolled);
  for (int width : kernels::multi_widths()) {
    BoundKernels<T> multi(a, Tier::kUnrolled, nullptr, width);
    auto x = random_batch<T>(n, width, 500 + static_cast<std::uint64_t>(
                                                 width));
    std::vector<T> out(static_cast<std::size_t>(width));
    VectorBatch<T> y(n, width);
    multi.ttsv0(x, {out.data(), out.size()});
    multi.ttsv1(x, y);
    std::vector<T> sx(static_cast<std::size_t>(n)),
        sy(static_cast<std::size_t>(n));
    for (int w = 0; w < width; ++w) {
      x.store_lane(w, {sx.data(), sx.size()});
      EXPECT_EQ(out[static_cast<std::size_t>(w)],
                scalar.ttsv0({sx.data(), sx.size()}))
          << "ttsv0 width " << width << " lane " << w;
      scalar.ttsv1({sx.data(), sx.size()}, {sy.data(), sy.size()});
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(y.at(i, w), sy[static_cast<std::size_t>(i)])
            << "ttsv1 width " << width << " lane " << w << " entry " << i;
      }
    }
  }
}

TEST_P(MultiKernelTest, UnrolledTierMatchesScalarPerLaneExactly) {
  const auto [m, n] = GetParam();
  if (kernels::find_unrolled<double>(m, n) == nullptr) {
    GTEST_SKIP() << "shape not in scalar unrolled registry";
  }
  expect_unrolled_lanes_exact<double>(m, n);
  expect_unrolled_lanes_exact<float>(m, n);
}

// A width with no vectorized route gathers each lane through the scalar
// kernels, so it is bitwise identical by construction. Without a compiler
// only the unrolled tier reaches that fallback: at shapes in the scalar
// registry but not in the multi one (jit at width 16 is covered by
// jit_test). General and precomputed are vectorized at every width.
TEST_P(MultiKernelTest, FallbackTiersAreBitwiseForEveryWidth) {
  const auto [m, n] = GetParam();
  CounterRng rng(203);
  const auto a = random_symmetric_tensor<double>(rng, 0, m, n);
  const kernels::KernelTables<double> tab(m, n);
  for (Tier tier : {Tier::kGeneral, Tier::kPrecomputed, Tier::kUnrolled}) {
    if (tier == Tier::kUnrolled &&
        kernels::find_unrolled<double>(m, n) == nullptr) {
      continue;
    }
    const auto* tables = kernels::uses_tables(tier) ? &tab : nullptr;
    BoundKernels<double> scalar(a, tier, tables);
    for (int width : kernels::multi_widths()) {
      BoundKernels<double> multi(a, tier, tables, width);
      const bool fallback =
          tier == Tier::kUnrolled &&
          kernels::find_multi_unrolled<double>(m, n, width) == nullptr;
      EXPECT_EQ(multi.vectorized(), !fallback)
          << kernels::tier_name(tier) << " width " << width;
      if (!fallback) continue;
      auto x = random_batch<double>(n, width,
                                    600 + static_cast<std::uint64_t>(width));
      std::vector<double> out(static_cast<std::size_t>(width));
      VectorBatch<double> y(n, width);
      multi.ttsv0(x, {out.data(), out.size()});
      multi.ttsv1(x, y);
      std::vector<double> sx(static_cast<std::size_t>(n)),
          sy(static_cast<std::size_t>(n));
      for (int w = 0; w < width; ++w) {
        x.store_lane(w, {sx.data(), sx.size()});
        EXPECT_EQ(out[static_cast<std::size_t>(w)],
                  scalar.ttsv0({sx.data(), sx.size()}));
        scalar.ttsv1({sx.data(), sx.size()}, {sy.data(), sy.size()});
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(y.at(i, w), sy[static_cast<std::size_t>(i)]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiKernelTest,
    ::testing::Values(std::pair{2, 3}, std::pair{3, 3}, std::pair{3, 5},
                      std::pair{4, 3}, std::pair{4, 5}, std::pair{4, 10},
                      std::pair{5, 4}, std::pair{6, 3}),
    [](const auto& pinfo) {
      return "m" + std::to_string(pinfo.param.first) + "n" +
             std::to_string(pinfo.param.second);
    });

// The start sweep runs every unrolled facade through its kSweepLanes
// route, so every scalar registry shape has one.
TEST(MultiKernels, EveryUnrolledShapeHasASweepLaneRoute) {
  for (const auto& e : kernels::unrolled_registry<float>()) {
    EXPECT_NE(kernels::find_multi_unrolled<float>(e.order, e.dim,
                                                  kernels::kSweepLanes),
              nullptr)
        << "float (" << e.order << ", " << e.dim << ")";
  }
  for (const auto& e : kernels::unrolled_registry<double>()) {
    EXPECT_NE(kernels::find_multi_unrolled<double>(e.order, e.dim,
                                                   kernels::kSweepLanes),
              nullptr)
        << "double (" << e.order << ", " << e.dim << ")";
  }
}

TEST(MultiKernels, WidthResolutionAndValidation) {
  CounterRng rng(204);
  const auto a = random_symmetric_tensor<double>(rng, 0, 3, 4);
  // Width 0 resolves to the tier's autopick; width 1 is the scalar route.
  BoundKernels<double> autow(a, Tier::kGeneral, nullptr, 0);
  EXPECT_TRUE(kernels::is_multi_width(autow.width()));
  EXPECT_EQ(autow.width(), kernels::pick_simd_width<double>());
  BoundKernels<double> one(a, Tier::kGeneral, nullptr, 1);
  EXPECT_EQ(one.width(), 1);
  EXPECT_FALSE(one.vectorized());
  // Non-registered widths are rejected.
  EXPECT_THROW(BoundKernels<double>(a, Tier::kGeneral, nullptr, 3),
               InvalidArgument);
  EXPECT_THROW(BoundKernels<double>(a, Tier::kGeneral, nullptr, 64),
               InvalidArgument);
  // Every host tier has a vectorized route, so the autopick is one rule.
  EXPECT_EQ(BoundKernels<double>(a, Tier::kUnrolled, nullptr, 0).width(),
            kernels::pick_simd_width<double>());
}

TEST(MultiKernels, BatchShapeMismatchThrows) {
  CounterRng rng(205);
  const auto a = random_symmetric_tensor<double>(rng, 0, 3, 4);
  BoundKernels<double> k(a, Tier::kGeneral, nullptr, 4);
  VectorBatch<double> wrong_width(4, 2);
  VectorBatch<double> wrong_dim(3, 4);
  std::vector<double> out(4);
  EXPECT_THROW(k.ttsv0(wrong_width, {out.data(), out.size()}),
               InvalidArgument);
  EXPECT_THROW(k.ttsv0(wrong_dim, {out.data(), out.size()}),
               InvalidArgument);
  VectorBatch<double> x(4, 4);
  std::vector<double> short_out(2);
  EXPECT_THROW(k.ttsv0(x, {short_out.data(), short_out.size()}),
               InvalidArgument);
}

TEST(MultiKernels, OpCountsScaleWithWidth) {
  CounterRng rng(206);
  const auto a = random_symmetric_tensor<double>(rng, 0, 4, 5);
  BoundKernels<double> scalar(a, Tier::kGeneral);
  std::vector<double> sx(5, 0.5);
  OpCounts one;
  (void)scalar.ttsv0({sx.data(), sx.size()}, &one);
  const int width = 4;
  BoundKernels<double> multi(a, Tier::kGeneral, nullptr, width);
  auto x = random_batch<double>(5, width, 207);
  std::vector<double> out(static_cast<std::size_t>(width));
  OpCounts many;
  multi.ttsv0(x, {out.data(), out.size()}, &many);
  // Full W-fold flop tally (plus the hoisted c*A product, once per class --
  // the scalar count has one fadd per class, reuse it as the class count),
  // but the integer index walk is amortized: paid once per class, not once
  // per lane.
  EXPECT_EQ(many.fmul, width * one.fmul + one.fadd);
  EXPECT_EQ(many.fadd, width * one.fadd);
  EXPECT_EQ(many.iop, one.iop);
  EXPECT_LT(many.iop, width * one.iop);
}

// ---------------------------------------------------------------------------
// The start sweep: slot-for-slot bitwise parity with solve() per start.
// ---------------------------------------------------------------------------

template <Real T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <Real T>
void expect_bitwise_slots(std::span<const sshopm::Result<T>> got,
                          std::span<const sshopm::Result<T>> ref,
                          const std::string& what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = ref[i];
    EXPECT_TRUE(same_bits(a.lambda, b.lambda)) << what << " slot " << i;
    EXPECT_EQ(a.iterations, b.iterations) << what << " slot " << i;
    EXPECT_EQ(a.failure, b.failure) << what << " slot " << i;
    EXPECT_EQ(a.converged, b.converged) << what << " slot " << i;
    ASSERT_EQ(a.x.size(), b.x.size()) << what << " slot " << i;
    for (std::size_t j = 0; j < a.x.size(); ++j) {
      EXPECT_TRUE(same_bits(a.x[j], b.x[j]))
          << what << " slot " << i << " entry " << j;
    }
  }
}

/// solve() from every start, one at a time.
template <Real T>
std::vector<sshopm::Result<T>> per_start_solve(
    const BoundKernels<T>& k, const std::vector<std::vector<T>>& starts,
    const sshopm::Options& opt) {
  std::vector<sshopm::Result<T>> out;
  for (const auto& x0 : starts) {
    out.push_back(sshopm::solve(k, {x0.data(), x0.size()}, opt));
  }
  return out;
}

/// solve_starts over every start into fresh slots.
template <Real T>
std::vector<sshopm::Result<T>> sweep(const BoundKernels<T>& k,
                                     const std::vector<std::vector<T>>& starts,
                                     const sshopm::Options& opt) {
  std::vector<sshopm::Result<T>> out(starts.size());
  sshopm::solve_starts(
      k, std::span<const std::vector<T>>(starts.data(), starts.size()), opt,
      std::span<sshopm::Result<T>>(out));
  return out;
}

// The parameter is the facade's width, which sizes only its VectorBatch
// calls: the sweep runs the same lanes at every width.
class SolveMultiTest : public ::testing::TestWithParam<int> {};

TEST_P(SolveMultiTest, MatchesScalarSolveAcrossTiersAndPartialBlocks) {
  const int width = GetParam();
  const int m = 4;
  const int n = 6;
  CounterRng rng(210);
  const auto a = random_symmetric_tensor<double>(rng, 0, m, n);
  kernels::KernelTables<double> tab(m, n);
  sshopm::Options opt;
  opt.alpha = 2.0;
  opt.max_iterations = 60;
  // width + 3 starts: the lanes never divide the count evenly for every
  // width, so the sweep's tail runs with idle lanes.
  const auto starts = random_starts<double>(width + 3, n, 211);

  struct TierCase {
    Tier tier;
    const kernels::KernelTables<double>* tables;
  };
  const TierCase cases[] = {
      {Tier::kGeneral, nullptr},
      {Tier::kPrecomputed, &tab},
      {Tier::kUnrolled, nullptr},  // (4, 6): lane route at kSweepLanes only
  };
  for (const auto& c : cases) {
    const auto ref =
        per_start_solve(BoundKernels<double>(a, c.tier, c.tables), starts, opt);
    const auto got =
        sweep(BoundKernels<double>(a, c.tier, c.tables, width), starts, opt);
    expect_bitwise_slots<double>(got, ref, kernels::tier_name(c.tier).data());
  }
}

TEST_P(SolveMultiTest, PoisonedLanesRetireIndependentlyWithScalarParity) {
  const int width = GetParam();
  const int m = 3;
  const int n = 5;
  CounterRng rng(212);
  const auto a = random_symmetric_tensor<double>(rng, 0, m, n);
  sshopm::Options opt;
  opt.alpha = 1.0;
  opt.max_iterations = 40;
  // A healthy sweep with poisoned lanes mixed in: an all-zero start (initial
  // degenerate), a NaN start (non-finite lambda), and a huge start that
  // normalizes fine. The scalar solver classifies each independently; the
  // sweep must match even though the poisoned runs share SIMD steps with
  // healthy ones.
  auto starts = random_starts<double>(2 * width + 1, n, 213);
  starts[1].assign(static_cast<std::size_t>(n), 0.0);  // degenerate
  starts[2].assign(static_cast<std::size_t>(n),
                   std::numeric_limits<double>::quiet_NaN());
  starts[3].assign(static_cast<std::size_t>(n), 1e154);  // huge but normal

  const auto ref =
      per_start_solve(BoundKernels<double>(a, Tier::kGeneral), starts, opt);
  ASSERT_EQ(ref[1].failure, sshopm::FailureReason::kDegenerateIterate);
  const auto got = sweep(BoundKernels<double>(a, Tier::kGeneral, nullptr, width),
                         starts, opt);
  expect_bitwise_slots<double>(got, ref, "poisoned");
  // The degenerate lane keeps its untouched start vector.
  EXPECT_EQ(got[1].x, starts[1]);
}

INSTANTIATE_TEST_SUITE_P(Widths, SolveMultiTest,
                         ::testing::Values(2, 4, 8, 16),
                         [](const auto& pinfo) {
                           return "w" + std::to_string(pinfo.param);
                         });

TEST(SolveMulti, UnrolledTierClassificationParity) {
  const int m = 4;
  const int n = 3;  // the application shape
  CounterRng rng(214);
  const auto a = random_symmetric_tensor<float>(rng, 0, m, n);
  sshopm::Options opt;
  opt.alpha = 1.5;
  opt.max_iterations = 80;
  const auto starts = random_starts<float>(10, n, 215);
  const auto ref =
      per_start_solve(BoundKernels<float>(a, Tier::kUnrolled), starts, opt);
  for (int width : {1, 4, 8}) {
    const auto got =
        sweep(BoundKernels<float>(a, Tier::kUnrolled, nullptr, width), starts,
              opt);
    expect_bitwise_slots<float>(got, ref, "unrolled");
  }
}

// ---------------------------------------------------------------------------
// Spectrum + Scheduler consumers keep parity end to end.
// ---------------------------------------------------------------------------

// find_eigenpairs sweeps its starts through the lanes; its pairs are the
// ones clustered from per-start solve() runs.
TEST(Spectrum, SimdWidthFindsTheSameEigenpairs) {
  const int m = 4;
  const int n = 5;
  CounterRng rng(220);
  const auto a = random_symmetric_tensor<double>(rng, 0, m, n);
  const auto starts = random_starts<double>(24, n, 221);
  sshopm::MultiStartOptions opt;
  opt.inner.alpha = 2.0;
  opt.inner.max_iterations = 300;
  const auto runs =
      per_start_solve(BoundKernels<double>(a, Tier::kGeneral), starts,
                      opt.inner);
  const auto scalar = sshopm::cluster_results(
      a, std::span<const sshopm::Result<double>>(runs.data(), runs.size()),
      opt);
  const auto swept = sshopm::find_eigenpairs(
      a, Tier::kGeneral,
      std::span<const std::vector<double>>(starts.data(), starts.size()), opt);
  ASSERT_EQ(swept.size(), scalar.size());
  ASSERT_FALSE(swept.empty());
  for (std::size_t i = 0; i < swept.size(); ++i) {
    EXPECT_TRUE(same_bits(swept[i].lambda, scalar[i].lambda)) << i;
    EXPECT_EQ(swept[i].basin_count, scalar[i].basin_count);
    EXPECT_EQ(static_cast<int>(swept[i].type),
              static_cast<int>(scalar[i].type));
  }
}

TEST(SchedulerMulti, LaneBlockedBackendsMatchScalarScheduler) {
  auto p = batch::BatchProblem<double>::random(222, 6, 9, 4, 3);
  p.options.alpha = 1.0;
  for (Tier tier : {Tier::kGeneral, Tier::kPrecomputed}) {
    // The reference: solve() per (tensor, start), tensor-major.
    const kernels::KernelTables<double> tab(p.order, p.dim);
    std::vector<sshopm::Result<double>> ref;
    for (const auto& t : p.tensors) {
      const auto runs = per_start_solve(
          BoundKernels<double>(t, tier,
                               kernels::uses_tables(tier) ? &tab : nullptr),
          p.starts, p.options);
      ref.insert(ref.end(), runs.begin(), runs.end());
    }
    for (auto backend : {batch::Backend::kCpuSequential,
                         batch::Backend::kCpuParallel}) {
      batch::SchedulerOptions opt;
      opt.chunk_tensors = 2;
      opt.cpu_threads = 3;
      batch::Scheduler<double> sched(backend, opt);
      const auto id = sched.submit(p, tier);
      sched.run();
      expect_bitwise_slots<double>(sched.result(id).results, ref,
                                   kernels::tier_name(tier).data());
    }
  }
}

// ---------------------------------------------------------------------------
// solve_starts: the one start sweep behind every CPU consumer.
// ---------------------------------------------------------------------------

TEST(SolveStarts, WidthOneIsPerStartSolveAndWiderIsSolveMulti) {
  // Width 1 and a wider facade run the same lane sweep: both are solve()
  // per start.
  const int n = 3;
  CounterRng rng(223);
  const auto a = random_symmetric_tensor<double>(rng, 0, 4, n);
  const auto starts = random_starts<double>(11, n, 224);
  const std::span<const std::vector<double>> span(starts.data(),
                                                  starts.size());
  sshopm::Options opt;
  opt.alpha = 1.0;
  const BoundKernels<double> scalar(a, Tier::kGeneral);
  const auto ref = per_start_solve(scalar, starts, opt);
  expect_bitwise_slots<double>(sweep(scalar, starts, opt), ref, "width 1");
  expect_bitwise_slots<double>(
      sweep(BoundKernels<double>(a, Tier::kGeneral, nullptr, 4), starts, opt),
      ref, "width 4");

  std::vector<sshopm::Result<double>> short_out(2);
  EXPECT_THROW(sshopm::solve_starts(
                   scalar, span, opt,
                   std::span<sshopm::Result<double>>(short_out)),
               InvalidArgument);
}

// The sweep keeps kSweepLanes runs in flight as SIMD lanes and publishes
// its kernel-call counts once per sweep. Its oracle is the
// one-run-at-a-time loop solve() ran before the sweep existed, kept here
// verbatim (solve() itself now runs the sweep): every slot, the OpCounts
// totals and every counter delta must match it exactly.
template <Real T>
sshopm::Result<T> reference_solve(const BoundKernels<T>& k,
                                  std::span<const T> x0,
                                  const sshopm::Options& opt, OpCounts* ops) {
  sshopm::Result<T> r;
  sshopm::detail::Run<T> run(r, opt.tolerance, nullptr);
  if (run.start(x0)) {
    const std::span<const T> x(r.x.data(), r.x.size());
    if (run.accept_first(k.ttsv0(x, ops))) {
      const T alpha = static_cast<T>(opt.alpha);
      const T sign = opt.alpha >= 0 ? T(1) : T(-1);
      std::vector<T> y(x.size());
      for (int it = 0; it < opt.max_iterations; ++it) {
        k.ttsv1(x, std::span<T>(y.data(), y.size()), ops);
        if (!run.update(std::span<const T>(y.data(), y.size()), alpha, sign,
                        ops) ||
            !run.accept(k.ttsv0(x, ops))) {
          break;
        }
      }
    }
  }
  run.finish();
  TE_OBS_ONLY(sshopm::detail::record_solve(r, opt));
  return r;
}

/// The counters a sweep moves: kernel calls on its tier, the run outcomes,
/// and the iteration histogram's count.
struct SweepCounters {
  std::int64_t v[9] = {};
  static SweepCounters read([[maybe_unused]] Tier tier) {
    SweepCounters c;
#if TE_OBS_ENABLED
    const std::string base(kernels::tier_name(tier));
    auto& g = obs::global();
    const std::int64_t now[9] = {
        g.counter("kernels.ttsv0.calls." + base).value(),
        g.counter("kernels.ttsv1.calls." + base).value(),
        g.counter("sshopm.solve.runs").value(),
        g.counter("sshopm.solve.converged").value(),
        g.counter("sshopm.solve.failures.max_iterations").value(),
        g.counter("sshopm.solve.failures.degenerate_iterate").value(),
        g.counter("sshopm.solve.failures.non_finite_lambda").value(),
        g.counter("sshopm.solve.trace.non_monotone_steps").value(),
        g.histogram("sshopm.solve.iterations").count(),
    };
    std::copy(std::begin(now), std::end(now), std::begin(c.v));
#endif
    return c;
  }
  friend SweepCounters operator-(SweepCounters a, const SweepCounters& b) {
    for (int i = 0; i < 9; ++i) a.v[i] -= b.v[i];
    return a;
  }
};

/// Sweep `starts` against the oracle at every (alpha, max_iterations) the
/// contract names: slots bitwise, OpCounts and counter deltas exact.
template <Real T>
void expect_sweep_matches_reference(const BoundKernels<T>& k,
                                    const std::vector<std::vector<T>>& starts,
                                    const std::string& what) {
  const std::span<const std::vector<T>> span(starts.data(), starts.size());
  for (const double alpha : {0.0, 1.0, -1.0}) {
    for (const int max_iterations : {1, 200}) {
      sshopm::Options opt;
      opt.alpha = alpha;
      opt.max_iterations = max_iterations;
      const std::string tag = what + " starts=" +
                              std::to_string(starts.size()) + " alpha=" +
                              std::to_string(alpha) +
                              " max_it=" + std::to_string(max_iterations);

      const auto c0 = SweepCounters::read(k.tier());
      OpCounts ref_ops;
      std::vector<sshopm::Result<T>> ref;
      for (const auto& x0 : starts) {
        ref.push_back(
            reference_solve(k, {x0.data(), x0.size()}, opt, &ref_ops));
      }
      const auto c1 = SweepCounters::read(k.tier());
      OpCounts got_ops;
      // Stale slots: the sweep must overwrite every field.
      std::vector<sshopm::Result<T>> got(starts.size());
      for (auto& r : got) {
        r.lambda = T(7);
        r.iterations = 99;
        r.failure = sshopm::FailureReason::kNonFiniteLambda;
        r.x = {T(1), T(2), T(3), T(4), T(5), T(6)};
      }
      sshopm::solve_starts(k, span, opt, std::span<sshopm::Result<T>>(got),
                           &got_ops);
      const auto c2 = SweepCounters::read(k.tier());

      expect_bitwise_slots<T>(got, ref, tag);
      EXPECT_EQ(got_ops, ref_ops) << tag;
      const auto want = c1 - c0;
      const auto have = c2 - c1;
      for (int i = 0; i < 9; ++i) {
        EXPECT_EQ(have.v[i], want.v[i]) << tag << " counter " << i;
      }
    }
  }
}

/// Random starts plus degenerate ones next to live ones: zero starts and
/// NaN starts at scattered positions, so they share lane steps with
/// healthy runs and their lanes refill mid-sweep.
template <Real T>
std::vector<std::vector<T>> sweep_starts(int count, int n,
                                         std::uint64_t seed) {
  auto starts = random_starts<T>(count, n, seed);
  for (int v = 1; v < count; v += 5) {
    if (v % 2 == 1) {
      std::fill(starts[static_cast<std::size_t>(v)].begin(),
                starts[static_cast<std::size_t>(v)].end(), T(0));
    } else {
      starts[static_cast<std::size_t>(v)][0] =
          std::numeric_limits<T>::quiet_NaN();
    }
  }
  return starts;
}

/// Start counts the sweep must handle: one run, fewer runs than lanes,
/// exactly one lane set, one more, two sets and one more, many refills.
constexpr int kSweepCounts[] = {1, 7, 8, 9, 17, 128};

template <Real T>
void expect_sweep_parity_on_tier(Tier tier, int m, int n) {
  CounterRng rng(231);
  auto a = random_symmetric_tensor<T>(rng, 0, m, n);
  auto poisoned = a;
  poisoned.value(1) = std::numeric_limits<T>::quiet_NaN();
  std::optional<kernels::KernelTables<T>> tables;
  if (kernels::uses_tables(tier)) tables.emplace(m, n);
  const std::string tier_tag = std::string(kernels::tier_name(tier)) + " m" +
                               std::to_string(m) + "n" + std::to_string(n) +
                               (sizeof(T) == 4 ? " float" : " double");
  for (const auto* tensor : {&a, &poisoned}) {
    const BoundKernels<T> k(*tensor, tier, tables ? &*tables : nullptr);
    const std::string what =
        tier_tag + (tensor == &poisoned ? " NaN-entry" : "");
    for (const int count : kSweepCounts) {
      expect_sweep_matches_reference<T>(
          k, sweep_starts<T>(count, n, 232 + static_cast<std::uint64_t>(count)),
          what);
    }
  }
}

// Every host tier x float and double x every unrolled registry shape.
class SweepParityTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SweepParityTest, SweepIsBitwiseTheReferenceLoopOnEveryHostTier) {
  const auto [m, n] = GetParam();
  for (const Tier tier :
       {Tier::kGeneral, Tier::kPrecomputed, Tier::kUnrolled}) {
    expect_sweep_parity_on_tier<float>(tier, m, n);
    expect_sweep_parity_on_tier<double>(tier, m, n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RegistryShapes, SweepParityTest,
    ::testing::ValuesIn([] {
      std::vector<std::pair<int, int>> shapes;
      for (const auto& e : kernels::unrolled_registry<double>()) {
        shapes.emplace_back(e.order, e.dim);
      }
      return shapes;
    }()),
    [](const auto& pinfo) {
      return "m" + std::to_string(pinfo.param.first) + "n" +
             std::to_string(pinfo.param.second);
    });

TEST(SolveStarts, WidthOneSweepIsBitwiseTheReferenceLoopOnEveryHostTier) {
  for (const Tier tier :
       {Tier::kGeneral, Tier::kPrecomputed, Tier::kUnrolled}) {
    expect_sweep_parity_on_tier<float>(tier, 4, 3);
    expect_sweep_parity_on_tier<double>(tier, 4, 3);
  }
  // A shape with a longer iterate than Result keeps inline, and shapes
  // past kMaxBatchDim (dim 67), where the sweep's rows move to the heap
  // and the lanes run one by one through the scalar kernel.
  expect_sweep_parity_on_tier<double>(Tier::kPrecomputed, 3, 7);
  expect_sweep_parity_on_tier<float>(Tier::kGeneral, 2,
                                     kernels::kMaxBatchDim + 3);
  expect_sweep_parity_on_tier<double>(Tier::kPrecomputed, 2,
                                      kernels::kMaxBatchDim + 3);
}

TEST(SolveStarts, WidthOneSweepIsBitwiseTheReferenceLoopOnJit) {
  if (!std::filesystem::exists(TE_TEST_HOST_CXX)) {
    GTEST_SKIP() << "no host compiler";
  }
  ::setenv(jit::kCompilerEnv, TE_TEST_HOST_CXX, 1);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("te_multi_test_jit_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  jit::set_cache_dir(dir.string());
  // (3, 7) is outside the compile-time unrolled registry: only the JIT
  // serves it as generated straight-line code. (4, 3) is the application
  // shape, where the JIT's lanes stand beside the unrolled tier's.
  const bool admitted = jit::acquire<float>(3, 7).available &&
                        jit::acquire<double>(3, 7).available &&
                        jit::acquire<float>(4, 3).available &&
                        jit::acquire<double>(4, 3).available;
  ::unsetenv(jit::kCompilerEnv);
  ASSERT_TRUE(admitted);
  expect_sweep_parity_on_tier<float>(Tier::kJit, 3, 7);
  expect_sweep_parity_on_tier<double>(Tier::kJit, 3, 7);
  expect_sweep_parity_on_tier<float>(Tier::kJit, 4, 3);
  expect_sweep_parity_on_tier<double>(Tier::kJit, 4, 3);
  std::filesystem::remove_all(dir);
}

// solve() is the one-start sweep: the trace it hands out and the counters
// it moves are the reference loop's.
TEST(SolveStarts, SolveIsTheOneStartSweepWithItsTrace) {
  CounterRng rng(235);
  const auto a = random_symmetric_tensor<double>(rng, 0, 4, 3);
  const BoundKernels<double> k(a, Tier::kUnrolled);
  const auto starts = random_starts<double>(1, 3, 236);
  sshopm::Options opt;
  opt.alpha = 2.0;
  std::vector<double> trace{42.0};
  const auto c0 = SweepCounters::read(Tier::kUnrolled);
  const auto r =
      sshopm::solve(k, {starts[0].data(), starts[0].size()}, opt, nullptr,
                    &trace);
  const auto c1 = SweepCounters::read(Tier::kUnrolled);
  const auto ref = reference_solve<double>(
      k, {starts[0].data(), starts[0].size()}, opt, nullptr);
  const auto c2 = SweepCounters::read(Tier::kUnrolled);
  expect_bitwise_slots<double>({&r, 1}, {&ref, 1}, "solve");
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(r.iterations) + 1);
  EXPECT_TRUE(same_bits(trace.back(), r.lambda));
  const auto have = c1 - c0;
  const auto want = c2 - c1;
  // The reference records no trace, so it never counts non-monotone steps.
  for (int i = 0; i < 9; ++i) {
    if (i != 7) {
      EXPECT_EQ(have.v[i], want.v[i]) << "counter " << i;
    }
  }
}

// VectorBatch calls count once per call on the tier's own counter, on the
// vectorized and the per-lane fallback routes alike.
TEST(MultiKernels, BatchCallsCountOncePerCallOnTheTierCounter) {
#if TE_OBS_ENABLED
  CounterRng rng(225);
  const auto a = random_symmetric_tensor<double>(rng, 0, 3, 4);
  // (3, 4) has an unrolled multi kernel only at kSweepLanes, so the
  // unrolled batch calls at width 4 take the per-lane fallback.
  for (Tier tier : {Tier::kGeneral, Tier::kUnrolled}) {
    const std::string base(kernels::tier_name(tier));
    const auto& calls0 = obs::global().counter("kernels.ttsv0.calls." + base);
    const auto& calls1 = obs::global().counter("kernels.ttsv1.calls." + base);
    const BoundKernels<double> k(a, tier, nullptr, 4);
    EXPECT_EQ(k.vectorized(), tier == Tier::kGeneral);
    const auto x = random_batch<double>(4, 4, 226);
    VectorBatch<double> y(4, 4);
    std::vector<double> out(4);
    const auto before0 = calls0.value();
    const auto before1 = calls1.value();
    k.ttsv0(x, {out.data(), out.size()});
    k.ttsv1(x, y);
    EXPECT_EQ(calls0.value(), before0 + 1) << base;
    EXPECT_EQ(calls1.value(), before1 + 1) << base;
  }
#else
  GTEST_SKIP() << "te::obs compiled out";
#endif
}

// ---------------------------------------------------------------------------
// TtsvWorkspace (satellite): hoisted scratch matches the allocating path.
// ---------------------------------------------------------------------------

TEST(TtsvWorkspace, ReusedWorkspaceMatchesFreshCalls) {
  CounterRng rng(230);
  const auto a3 = random_symmetric_tensor<double>(rng, 0, 4, 4);
  const auto a4 = random_symmetric_tensor<double>(rng, 1, 3, 5);
  std::vector<double> x4 = {0.3, -0.7, 0.2, 0.9};
  std::vector<double> x5 = {0.1, 0.4, -0.6, 0.8, -0.2};
  kernels::TtsvWorkspace ws;
  // Same workspace across changing (p, n) shapes and repeated calls.
  for (int rep = 0; rep < 2; ++rep) {
    for (int p = 1; p <= 4; ++p) {
      const auto fresh = kernels::ttsv(a3, {x4.data(), x4.size()}, p);
      const auto reused = kernels::ttsv(a3, {x4.data(), x4.size()}, p, ws);
      ASSERT_EQ(fresh.num_unique(), reused.num_unique());
      for (offset_t r = 0; r < fresh.num_unique(); ++r) {
        EXPECT_EQ(fresh.value(r), reused.value(r))
            << "p=" << p << " rep=" << rep << " r=" << r;
      }
    }
    for (int p = 1; p <= 3; ++p) {
      const auto fresh = kernels::ttsv(a4, {x5.data(), x5.size()}, p);
      const auto reused = kernels::ttsv(a4, {x5.data(), x5.size()}, p, ws);
      for (offset_t r = 0; r < fresh.num_unique(); ++r) {
        EXPECT_EQ(fresh.value(r), reused.value(r));
      }
    }
  }
  // The monomial table is cached per shape (prepare is idempotent).
  EXPECT_EQ(ws.p, 3);
  EXPECT_EQ(ws.n, 5);
}

// ---------------------------------------------------------------------------
// Width autotuner + obs export reader (satellites).
// ---------------------------------------------------------------------------

TEST(AutotuneMultiWidth, ReportsValidWidthAndMeasuresEveryCandidate) {
  const auto rep = kernels::autotune_multi_width(3, 4, Tier::kGeneral, 3);
  EXPECT_EQ(rep.tier, Tier::kGeneral);
  EXPECT_TRUE(kernels::is_multi_width(rep.best_width));
  ASSERT_EQ(rep.lane_us.size(), 1 + kernels::multi_widths().size());
  EXPECT_EQ(rep.lane_us.front().first, 1);
  for (const auto& [w, us] : rep.lane_us) {
    EXPECT_TRUE(kernels::is_multi_width(w));
    EXPECT_GT(us, 0.0) << "width " << w;
  }
  // Unrolled (3, 4) is vectorized only at the sweep's kSweepLanes: a
  // per-lane fallback width (the scalar math plus gather overhead) can
  // never beat width 1, so only widths 1 and kSweepLanes are timed.
  const auto fallback =
      kernels::autotune_multi_width(3, 4, Tier::kUnrolled, 2);
  ASSERT_EQ(fallback.lane_us.size(), 2u);
  EXPECT_EQ(fallback.lane_us.front().first, 1);
  EXPECT_EQ(fallback.lane_us.back().first, kernels::kSweepLanes);
  EXPECT_TRUE(fallback.best_width == 1 ||
              fallback.best_width == kernels::kSweepLanes);
}

TEST(ObsExport, ReadExportGaugeFindsGaugesAndRejectsGarbage) {
  const std::string doc = R"({
    "schema": "te-obs-v1",
    "meta": {},
    "counters": {"a.calls": 3},
    "gauges": {"kernels.multi.simd_width": 8, "occ": 0.75},
    "histograms": {},
    "spans": []
  })";
  ASSERT_TRUE(obs::validate_export_json(doc).ok);
  const auto w = obs::read_export_gauge(doc, "kernels.multi.simd_width");
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 8.0);
  const auto occ = obs::read_export_gauge(doc, "occ");
  ASSERT_TRUE(occ.has_value());
  EXPECT_DOUBLE_EQ(*occ, 0.75);
  EXPECT_FALSE(obs::read_export_gauge(doc, "missing").has_value());
  EXPECT_FALSE(obs::read_export_gauge("not json", "occ").has_value());
  EXPECT_FALSE(obs::read_export_gauge("{}", "occ").has_value());
}

TEST(ObsExport, ReadExportGaugeRoundTripsThroughSnapshot) {
  obs::global().gauge("multi_test.roundtrip").set(12.5);
  const std::string json = obs::to_json(obs::global().snapshot());
  const auto v = obs::read_export_gauge(json, "multi_test.roundtrip");
#if TE_OBS_ENABLED
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 12.5);
#else
  // Disabled builds export an empty snapshot; absent means nullopt, not UB.
  EXPECT_FALSE(v.has_value());
#endif
}

}  // namespace
}  // namespace te
