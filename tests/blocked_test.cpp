// Tests for the blocked compact symmetric layout and the blocked_par
// parallel ttsv tier: large-dim combinatorics (rank/unrank round trips,
// the shape_fits_offset capacity precheck), block-class enumeration,
// blocked<->flat bitwise round trips, kernel parity against the general
// tier (bitwise on exact-integer inputs, tolerance on random ones),
// multi-thread determinism, and the byte-budgeted TableCache.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "te/batch/table_cache.hpp"
#include "te/comb/block_class.hpp"
#include "te/comb/index_class.hpp"
#include "te/comb/multinomial.hpp"
#include "te/kernels/blocked_par.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/kernels/general.hpp"
#include "te/parallel/executor.hpp"
#include "te/parallel/thread_pool.hpp"
#include "te/tensor/blocked_symmetric_tensor.hpp"
#include "te/tensor/generators.hpp"
#include "te/tensor/symmetric_tensor.hpp"
#include "te/util/rng.hpp"

namespace te {
namespace {

using comb::BlockEntryIterator;
using comb::BlockPartition;
using kernels::Tier;

// ---------------------------------------------------------------------------
// Capacity precheck (satellite: int64 overflow at large (m, n)).

TEST(ShapeFitsOffset, AcceptsPaperScaleAndLargeN) {
  EXPECT_TRUE(comb::shape_fits_offset(3, 3));
  EXPECT_TRUE(comb::shape_fits_offset(4, 6));
  EXPECT_TRUE(comb::shape_fits_offset(3, 1024));
  EXPECT_TRUE(comb::shape_fits_offset(20, 1));
  // n = 10^4: fine through order 5...
  EXPECT_TRUE(comb::shape_fits_offset(5, 10000));
  // ...but order 6 would wrap the int64 rank arithmetic mid-sum.
  EXPECT_FALSE(comb::shape_fits_offset(6, 10000));
}

TEST(ShapeFitsOffset, RejectsInvalidAndOversized) {
  EXPECT_FALSE(comb::shape_fits_offset(0, 5));
  EXPECT_FALSE(comb::shape_fits_offset(3, 0));
  EXPECT_FALSE(comb::shape_fits_offset(21, 2));  // past kMaxFactorialArg
  EXPECT_FALSE(comb::shape_fits_offset(8, 1000000));
}

TEST(CheckedBinomial, MatchesBinomialInRangeAndProbesOverflow) {
  EXPECT_EQ(comb::checked_binomial(10, 3).value(), comb::binomial(10, 3));
  EXPECT_EQ(comb::checked_binomial(5, 7).value(), 0);
  EXPECT_EQ(comb::checked_binomial(10004, 5).value(),
            comb::binomial(10004, 5));
  EXPECT_FALSE(comb::checked_binomial(10005, 6).has_value());
}

TEST(CapacityPrecheck, RankAndUnrankRejectOverflowShapesClearly) {
  std::vector<index_t> idx(6, 9999);
  EXPECT_THROW((void)comb::index_class_rank({idx.data(), idx.size()}, 10000),
               InvalidArgument);
  EXPECT_THROW((void)comb::index_class_unrank(0, 6, 10000), InvalidArgument);
}

TEST(CapacityPrecheck, TensorConstructionRejectsOverflowShape) {
  EXPECT_THROW((SymmetricTensor<double>(6, 10000)), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Large-dim rank/unrank round trips (satellite: large-dim coverage).

TEST(LargeDimRank, RoundTripAtTenThousand) {
  const int n = 10000;
  for (const int m : {2, 3, 5}) {
    const offset_t u = comb::num_unique_entries(m, n);
    // First and last ranks.
    for (const offset_t r : {offset_t{0}, u - 1, u / 2, u / 3, offset_t{1}}) {
      const auto idx = comb::index_class_unrank(r, m, n);
      EXPECT_EQ(comb::index_class_rank({idx.data(), idx.size()}, n), r)
          << "m=" << m << " rank=" << r;
    }
    // First class is all-zero, last is all n-1.
    const auto first = comb::index_class_unrank(0, m, n);
    const auto last = comb::index_class_unrank(u - 1, m, n);
    for (int j = 0; j < m; ++j) {
      EXPECT_EQ(first[static_cast<std::size_t>(j)], 0);
      EXPECT_EQ(last[static_cast<std::size_t>(j)], n - 1);
    }
  }
}

TEST(ClassRankTable, MatchesIndexClassRank) {
  // Exhaustive at a paper-scale shape.
  {
    const comb::ClassRankTable table(4, 6);
    for (comb::IndexClassIterator it(4, 6); !it.done(); it.next()) {
      EXPECT_EQ(table.rank(it.index()), it.rank());
    }
  }
  // Spot checks at n = 10^4.
  {
    const int n = 10000;
    const comb::ClassRankTable table(3, n);
    const offset_t u = comb::num_unique_entries(3, n);
    for (const offset_t r : {offset_t{0}, u - 1, u / 2, u / 7}) {
      const auto idx = comb::index_class_unrank(r, 3, n);
      EXPECT_EQ(table.rank({idx.data(), idx.size()}), r);
    }
  }
}

// ---------------------------------------------------------------------------
// Block-class enumeration.

TEST(BlockClass, EntryCountsSumToUniqueCount) {
  for (const auto& [m, n, bd] : std::vector<std::array<int, 3>>{
           {2, 5, 2}, {3, 7, 3}, {4, 6, 4}, {3, 8, 8}, {3, 9, 1}}) {
    const BlockPartition part(n, bd);
    offset_t total = 0;
    for (comb::IndexClassIterator it(m, part.num_blocks()); !it.done();
         it.next()) {
      total += comb::block_class_entry_count(it.index(), part);
    }
    EXPECT_EQ(total, comb::num_unique_entries(m, n))
        << "m=" << m << " n=" << n << " bd=" << bd;
  }
}

TEST(BlockEntryIterator, CoversEveryClassExactlyOnceInLexOrder) {
  const int m = 3;
  const int n = 7;
  const BlockPartition part(n, 3);  // blocks of 3, 3, 1
  std::set<offset_t> seen;
  for (comb::IndexClassIterator bc(m, part.num_blocks()); !bc.done();
       bc.next()) {
    offset_t prev_rank = -1;
    offset_t count = 0;
    for (BlockEntryIterator it(bc.index(), part); !it.done(); it.next()) {
      const auto idx = it.index();
      EXPECT_TRUE(comb::is_index_rep(idx, n));
      // Belongs to this block-class.
      for (int j = 0; j < m; ++j) {
        EXPECT_EQ(part.block_of(idx[static_cast<std::size_t>(j)]),
                  bc.index()[static_cast<std::size_t>(j)]);
      }
      // Within-class order is ascending global lex order.
      const offset_t g = comb::index_class_rank(idx, n);
      EXPECT_GT(g, prev_rank);
      prev_rank = g;
      EXPECT_TRUE(seen.insert(g).second) << "class visited twice";
      // local_rank matches the mixed-radix ranking.
      EXPECT_EQ(comb::block_class_local_rank(idx, part), it.local_rank());
      ++count;
    }
    EXPECT_EQ(count, comb::block_class_entry_count(bc.index(), part));
  }
  EXPECT_EQ(static_cast<offset_t>(seen.size()),
            comb::num_unique_entries(m, n));
}

// ---------------------------------------------------------------------------
// Blocked layout round trips.

template <Real T>
void expect_bitwise_round_trip(int m, int n, int bd) {
  const CounterRng rng(20260808);
  const auto a = random_symmetric_tensor<T>(rng, 7, m, n);
  const BlockedSymmetricTensor<T> blocked(a, bd);
  EXPECT_EQ(blocked.num_unique(), a.num_unique());
  const SymmetricTensor<T> back = blocked.to_flat();
  ASSERT_EQ(back.values().size(), a.values().size());
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    // Bitwise: conversions are pure value moves.
    EXPECT_EQ(back.values()[i], a.values()[i]) << "i=" << i;
  }
}

TEST(BlockedLayout, FlatRoundTripIsBitwise) {
  expect_bitwise_round_trip<double>(3, 7, 3);
  expect_bitwise_round_trip<double>(4, 6, 4);
  expect_bitwise_round_trip<double>(2, 9, 4);
  expect_bitwise_round_trip<float>(3, 10, 3);
  expect_bitwise_round_trip<float>(5, 5, 2);
  expect_bitwise_round_trip<double>(3, 32, 32);  // single block
}

TEST(BlockedLayout, OffsetOfAgreesWithFlatAccessor) {
  const CounterRng rng(99);
  const auto a = random_symmetric_tensor<double>(rng, 3, 3, 8);
  const BlockedSymmetricTensor<double> blocked(a, 3);
  const std::vector<std::vector<index_t>> probes = {
      {0, 0, 0}, {7, 7, 7}, {2, 5, 1}, {4, 4, 6}, {3, 0, 7}};
  for (const auto& p : probes) {
    const std::span<const index_t> s{p.data(), p.size()};
    EXPECT_EQ(blocked(s), a(s));
  }
}

TEST(BlockedLayout, ClassSlicesPartitionTheValues) {
  const BlockedSymmetricTensor<double> blocked(3, 10, 4);
  const auto offsets = blocked.class_offsets();
  ASSERT_EQ(static_cast<offset_t>(offsets.size()),
            blocked.num_block_classes() + 1);
  EXPECT_EQ(offsets.front(), 0);
  EXPECT_EQ(offsets.back(), blocked.num_unique());
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    EXPECT_LT(offsets[i], offsets[i + 1]);  // every class is nonempty
  }
}

// ---------------------------------------------------------------------------
// blocked_par kernels vs the general tier.

/// Exact-integer tensor/vector: every term and partial sum is an integer
/// well inside double (and float) exactness, so summation order cannot
/// change the result and cross-tier comparisons are BITWISE.
template <Real T>
SymmetricTensor<T> integer_tensor(int m, int n, std::uint64_t stream) {
  const CounterRng rng(4242);
  SymmetricTensor<T> a(m, n);
  auto vals = a.values();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<T>(
        static_cast<int>(rng.in(stream, i, -4.0, 4.0)));  // ints in [-4, 4]
  }
  return a;
}

template <Real T>
std::vector<T> integer_vector(int n, std::uint64_t stream) {
  const CounterRng rng(777);
  std::vector<T> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<T>(static_cast<int>(rng.in(stream, i, -2.0, 3.0)));
  }
  return x;
}

TEST(BlockedPar, BitwiseEqualsGeneralOnExactInputs) {
  for (const auto& [m, n, bd] : std::vector<std::array<int, 3>>{
           {3, 7, 3}, {4, 6, 2}, {2, 9, 4}, {3, 12, 5}}) {
    const auto a = integer_tensor<double>(m, n, 1);
    const auto x = integer_vector<double>(n, 2);
    const BlockedSymmetricTensor<double> blocked(a, bd);
    kernels::BlockedParWorkspace<double> ws;

    const double y0_ref = kernels::ttsv0_general(
        a, {x.data(), x.size()});
    std::vector<double> y1_ref(static_cast<std::size_t>(n));
    kernels::ttsv1_general(a, {x.data(), x.size()},
                           {y1_ref.data(), y1_ref.size()});

    for (const int workers : {1, 2, 4, 7}) {
      ThreadPool pool(workers);
      const auto ex = parallel::executor_for(pool);
      const double y0 = kernels::ttsv0_blocked_par(
          blocked, {x.data(), x.size()}, ex, ws);
      EXPECT_EQ(y0, y0_ref) << "m=" << m << " n=" << n << " P=" << workers;
      std::vector<double> y1(static_cast<std::size_t>(n));
      kernels::ttsv1_blocked_par(blocked, {x.data(), x.size()},
                                 {y1.data(), y1.size()}, ex, ws);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(y1[static_cast<std::size_t>(i)],
                  y1_ref[static_cast<std::size_t>(i)])
            << "m=" << m << " n=" << n << " P=" << workers << " i=" << i;
      }
    }
  }
}

TEST(BlockedPar, MatchesGeneralWithinToleranceOnRandomInputs) {
  const CounterRng rng(5150);
  const int m = 3;
  const int n = 24;
  const auto a = random_symmetric_tensor<double>(rng, 1, m, n);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.in(9, i, -1.0, 1.0);
  const BlockedSymmetricTensor<double> blocked(a, 8);
  kernels::BlockedParWorkspace<double> ws;
  ThreadPool pool(4);
  const auto ex = parallel::executor_for(pool);

  const double y0_ref = kernels::ttsv0_general(a, {x.data(), x.size()});
  const double y0 =
      kernels::ttsv0_blocked_par(blocked, {x.data(), x.size()}, ex, ws);
  EXPECT_NEAR(y0, y0_ref, 1e-12 * std::abs(y0_ref) + 1e-14);

  std::vector<double> y1_ref(static_cast<std::size_t>(n));
  std::vector<double> y1(static_cast<std::size_t>(n));
  kernels::ttsv1_general(a, {x.data(), x.size()},
                         {y1_ref.data(), y1_ref.size()});
  kernels::ttsv1_blocked_par(blocked, {x.data(), x.size()},
                             {y1.data(), y1.size()}, ex, ws);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(y1[static_cast<std::size_t>(i)],
                y1_ref[static_cast<std::size_t>(i)],
                1e-12 * std::abs(y1_ref[static_cast<std::size_t>(i)]) + 1e-14);
  }
}

TEST(BlockedPar, MultiThreadRunsAreDeterministic) {
  const CounterRng rng(31337);
  const auto a = random_symmetric_tensor<double>(rng, 3, 3, 20);
  std::vector<double> x(20);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.in(4, i, -1.0, 1.0);
  const BlockedSymmetricTensor<double> blocked(a, 5);
  kernels::BlockedParWorkspace<double> ws;
  ThreadPool pool(4);
  const auto ex = parallel::executor_for(pool);

  const double first =
      kernels::ttsv0_blocked_par(blocked, {x.data(), x.size()}, ex, ws);
  std::vector<double> y_first(20);
  kernels::ttsv1_blocked_par(blocked, {x.data(), x.size()},
                             {y_first.data(), y_first.size()}, ex, ws);
  for (int rep = 0; rep < 10; ++rep) {
    EXPECT_EQ(
        kernels::ttsv0_blocked_par(blocked, {x.data(), x.size()}, ex, ws),
        first);
    std::vector<double> y(20);
    kernels::ttsv1_blocked_par(blocked, {x.data(), x.size()},
                               {y.data(), y.size()}, ex, ws);
    EXPECT_EQ(y, y_first);
  }
}

TEST(BlockedPar, SequentialExecutorMatchesSingleThreadPool) {
  const auto a = integer_tensor<float>(3, 10, 3);
  const auto x = integer_vector<float>(10, 4);
  const BlockedSymmetricTensor<float> blocked(a, 4);
  kernels::BlockedParWorkspace<float> ws_seq;
  kernels::BlockedParWorkspace<float> ws_pool;
  ThreadPool pool(1);
  const auto ex = parallel::executor_for(pool);
  EXPECT_EQ(kernels::ttsv0_blocked_par(blocked, {x.data(), x.size()},
                                       kernels::seq_executor(), ws_seq),
            kernels::ttsv0_blocked_par(blocked, {x.data(), x.size()}, ex,
                                       ws_pool));
}

TEST(BlockedPar, OpCountsMatchGeneralTier) {
  // Same term structure as the general tier => identical op accounting.
  const auto a = integer_tensor<double>(3, 8, 5);
  const auto x = integer_vector<double>(8, 6);
  const BlockedSymmetricTensor<double> blocked(a, 3);
  kernels::BlockedParWorkspace<double> ws;
  OpCounts ref0;
  OpCounts got0;
  (void)kernels::ttsv0_general(a, {x.data(), x.size()}, &ref0);
  (void)kernels::ttsv0_blocked_par(blocked, {x.data(), x.size()},
                                   kernels::seq_executor(), ws, &got0);
  EXPECT_EQ(got0.fmul, ref0.fmul);
  EXPECT_EQ(got0.fadd, ref0.fadd);

  OpCounts ref1;
  OpCounts got1;
  std::vector<double> y(8);
  kernels::ttsv1_general(a, {x.data(), x.size()}, {y.data(), y.size()},
                         &ref1);
  kernels::ttsv1_blocked_par(blocked, {x.data(), x.size()},
                             {y.data(), y.size()}, kernels::seq_executor(),
                             ws, &got1);
  EXPECT_EQ(got1.fmul, ref1.fmul);
  EXPECT_EQ(got1.fadd, ref1.fadd);
}

TEST(BlockedPar, BoundKernelsFacadeDispatches) {
  const auto a = integer_tensor<double>(3, 9, 8);
  const auto x = integer_vector<double>(9, 9);
  ThreadPool pool(2);
  const auto ex = parallel::executor_for(pool);
  const kernels::BoundKernels<double> seq(a, Tier::kBlockedPar);
  const kernels::BoundKernels<double> par(a, Tier::kBlockedPar, nullptr, &ex);
  const double ref = kernels::ttsv0_general(a, {x.data(), x.size()});
  EXPECT_EQ(seq.ttsv0({x.data(), x.size()}), ref);
  EXPECT_EQ(par.ttsv0({x.data(), x.size()}), ref);
  std::vector<double> y_ref(9);
  std::vector<double> y(9);
  kernels::ttsv1_general(a, {x.data(), x.size()},
                         {y_ref.data(), y_ref.size()});
  par.ttsv1({x.data(), x.size()}, {y.data(), y.size()});
  EXPECT_EQ(y, y_ref);
  EXPECT_NE(seq.blocked(), nullptr);
  EXPECT_EQ(kernels::tier_name(Tier::kBlockedPar), "blocked_par");
}

TEST(BlockedPar, LargeDimKernelsRunWithHeapAccumulator) {
  // dim > 64 exercises the heap-accumulator fallback in ttsv1_general too.
  const int m = 3;
  const int n = 96;
  const auto a = integer_tensor<double>(m, n, 11);
  const auto x = integer_vector<double>(n, 12);
  const BlockedSymmetricTensor<double> blocked(a, 32);
  kernels::BlockedParWorkspace<double> ws;
  ThreadPool pool(4);
  const auto ex = parallel::executor_for(pool);
  std::vector<double> y_ref(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  kernels::ttsv1_general(a, {x.data(), x.size()},
                         {y_ref.data(), y_ref.size()});
  kernels::ttsv1_blocked_par(blocked, {x.data(), x.size()},
                             {y.data(), y.size()}, ex, ws);
  EXPECT_EQ(y, y_ref);
  EXPECT_EQ(kernels::ttsv0_blocked_par(blocked, {x.data(), x.size()}, ex, ws),
            kernels::ttsv0_general(a, {x.data(), x.size()}));
}

// ---------------------------------------------------------------------------
// ThreadPool empty-range no-ops (satellite: submit_range bugfix).

TEST(ThreadPoolRange, EmptyRangeIsCompleteNoOp) {
  ThreadPool pool(3);
  int calls = 0;
  pool.submit_range(5, 5, [&](std::int64_t, std::int64_t, int) { ++calls; });
  pool.submit_range(7, 3, [&](std::int64_t, std::int64_t, int) { ++calls; });
  pool.parallel_chunks(0, [&](std::int64_t, std::int64_t, int) { ++calls; });
  pool.parallel_for(0, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // The pool still works afterwards.
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::int64_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

// ---------------------------------------------------------------------------
// Byte-budgeted TableCache (satellite: bytes, not entries).

TEST(TableCacheBytes, EvictsOnByteBudgetNotEntryCount) {
  // Budget sized to hold the two small shapes but not the large one too.
  const kernels::KernelTables<double> probe_small(3, 4);
  const kernels::KernelTables<double> probe_large(4, 10);
  const std::size_t budget =
      2 * probe_small.table_bytes() + probe_large.table_bytes() / 2;
  batch::TableCache<double> cache(8, budget);

  (void)cache.get(3, 4, Tier::kPrecomputed);
  (void)cache.get(3, 5, Tier::kPrecomputed);
  EXPECT_EQ(cache.stats().evictions, 0);
  const auto resident_before = cache.bytes_resident();
  EXPECT_GT(resident_before, 0);

  // The large entry blows the byte budget while entry count (3) is far
  // below capacity (8): older entries must be evicted anyway. The large
  // entry itself exceeds the remaining budget, so eviction drains down to
  // the never-evicted MRU entry.
  const auto large = cache.get(4, 10, Tier::kPrecomputed);
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes_resident(),
            static_cast<std::int64_t>(large->table_bytes()));
}

TEST(TableCacheBytes, MostRecentEntrySurvivesOverBudgetInsert) {
  batch::TableCache<double> cache(4, 1);  // 1-byte budget: everything over
  const auto t = cache.get(3, 6, Tier::kPrecomputed);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(cache.size(), 1u);  // kept despite the budget
  const auto again = cache.get(3, 6, Tier::kPrecomputed);
  EXPECT_EQ(again.get(), t.get());
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(TableCacheBytes, BytesResidentTracksContents) {
  batch::TableCache<float> cache(4);
  EXPECT_EQ(cache.bytes_resident(), 0);
  const auto t = cache.get(3, 4, Tier::kPrecomputed);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(cache.bytes_resident(),
            static_cast<std::int64_t>(t->table_bytes()));
  cache.clear();
  EXPECT_EQ(cache.bytes_resident(), 0);
}

}  // namespace
}  // namespace te
