// Thread-pool and CPU-model tests: functional correctness at several thread
// counts, exception propagation, index claiming, and the documented shape
// of the multicore timing model.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "te/parallel/cpu_model.hpp"
#include "te/parallel/thread_pool.hpp"

namespace te {
namespace {

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(100, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
  }
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> calls2{0};
  pool.parallel_for(2, [&](std::int64_t) { calls2.fetch_add(1); });
  EXPECT_EQ(calls2.load(), 2);
}

TEST(ThreadPool, ClaimedIndicesRiseWithinEachWorker) {
  // Workers claim indices from one shared counter, so each worker sees a
  // strictly increasing sequence and together they cover the range.
  ThreadPool pool(3);
  std::mutex mu;
  std::map<std::thread::id, std::vector<std::int64_t>> claimed;
  pool.parallel_for(200, [&](std::int64_t i) {
    std::lock_guard lock(mu);
    claimed[std::this_thread::get_id()].push_back(i);
  });
  EXPECT_LE(claimed.size(), 3u);
  std::vector<std::int64_t> all;
  for (const auto& [id, seq] : claimed) {
    EXPECT_TRUE(std::is_sorted(seq.begin(), seq.end()));
    EXPECT_EQ(std::adjacent_find(seq.begin(), seq.end()), seq.end());
    all.insert(all.end(), seq.begin(), seq.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<std::int64_t> expect(200);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(all, expect);
}

TEST(ThreadPool, UnevenWorkIsClaimedNotPartitioned) {
  // Index 0 does not finish until every other index has run. Under a fixed
  // contiguous share per worker, 0's worker would still own 1..31 and wait
  // out the deadline; with claiming, the other worker takes them all.
  ThreadPool pool(2);
  std::atomic<int> others{0};
  std::atomic<bool> starved{false};
  pool.parallel_for(64, [&](std::int64_t i) {
    if (i != 0) {
      others.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others.load() < 63) {
      if (std::chrono::steady_clock::now() > deadline) {
        starved = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  EXPECT_FALSE(starved.load());
  EXPECT_EQ(others.load(), 63);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::int64_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // Pool stays usable afterwards.
  std::atomic<int> ok{0};
  pool.parallel_for(5, [&](std::int64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 5);
}

TEST(ThreadPool, ResultsIndependentOfThreadCount) {
  // A deterministic reduction computed with different pool widths must be
  // identical (the batch backends rely on this property).
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<double> out(64);
    pool.parallel_for(64, [&](std::int64_t i) {
      double v = static_cast<double>(i) + 1;
      for (int k = 0; k < 20; ++k) v = v * 1.000001 + 0.5;
      out[static_cast<std::size_t>(i)] = v;
    });
    return out;
  };
  const auto a = run(1);
  EXPECT_EQ(a, run(3));
  EXPECT_EQ(a, run(8));
}

TEST(ThreadPool, RejectsNonPositiveWidth) {
  EXPECT_THROW(ThreadPool(0), InvalidArgument);
}

TEST(ThreadPool, ConcurrentParallelForCallsAllComplete) {
  // Two host threads drive one pool at the same time (the scheduler's
  // shared-pool mode); each call's iteration space runs exactly once.
  // Heavier variants live in stress_test.cpp (ctest label: stress).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(50), b(50);
  std::thread other([&] {
    pool.parallel_for(50, [&](std::int64_t i) {
      b[static_cast<std::size_t>(i)].fetch_add(1);
    });
  });
  pool.parallel_for(50, [&](std::int64_t i) {
    a[static_cast<std::size_t>(i)].fetch_add(1);
  });
  other.join();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a[static_cast<std::size_t>(i)].load(), 1) << i;
    EXPECT_EQ(b[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

// ---------------------------------------------------------------------------
// parallel_for over index ranges: the contract the scheduler's claimed
// dispatch relies on.

TEST(ThreadPoolRange, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 3, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(103);
    pool.parallel_for(103, [&](std::int64_t i) {
      EXPECT_GE(i, 0);
      EXPECT_LT(i, 103);
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPoolRange, EmptyAndSingletonRanges) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(0, [&](std::int64_t) { ++calls; });
  pool.parallel_for(-2, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  pool.parallel_for(1, [&](std::int64_t i) {
    EXPECT_EQ(i, 0);
    total.fetch_add(1);
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPoolRange, PropagatesFirstException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(1000, [&](std::int64_t i) {
      ran.fetch_add(1);
      if (i == 0) throw std::runtime_error("first");
      if (i == 1) throw std::logic_error("second");
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error&) {
    // index 0 or 1 threw first: either type is a valid winner, but only
    // one surfaces.
  } catch (const std::logic_error&) {
  }
  // Indices not yet claimed when the first exception landed are skipped.
  EXPECT_LT(ran.load(), 1000);
  // The pool stays usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(4, [&](std::int64_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 4);
}

TEST(ThreadPoolRange, EmptyRangeIsCompleteNoOp) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(0, [&](std::int64_t) { ++calls; });
  pool.parallel_for(-7, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // The pool still works afterwards.
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::int64_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

// ---------------------------------------------------------------------------
// CPU timing model.
// ---------------------------------------------------------------------------

TEST(CpuModel, OneThreadIsIdentity) {
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  EXPECT_DOUBLE_EQ(parallel::modeled_speedup(spec, params,
                                             kernels::Tier::kGeneral, 1),
                   1.0);
}

TEST(CpuModel, InSocketScalingIsNearLinear) {
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  const double s4 = parallel::modeled_speedup(spec, params,
                                              kernels::Tier::kGeneral, 4);
  EXPECT_GT(s4, 3.0);
  EXPECT_LT(s4, 4.0);
  // Same for the unrolled tier within one socket.
  EXPECT_DOUBLE_EQ(s4, parallel::modeled_speedup(
                           spec, params, kernels::Tier::kUnrolled, 4));
}

TEST(CpuModel, CrossSocketPenalizesUnrolledTier) {
  // The paper's observation: the general tier keeps scaling to 8 cores
  // (~7.1x) while the unrolled tier stalls (~4.7x).
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  const double g8 = parallel::modeled_speedup(spec, params,
                                              kernels::Tier::kGeneral, 8);
  const double u8 = parallel::modeled_speedup(spec, params,
                                              kernels::Tier::kUnrolled, 8);
  EXPECT_GT(g8, 6.0);
  EXPECT_LT(u8, 5.5);
  EXPECT_GT(u8, parallel::modeled_speedup(spec, params,
                                          kernels::Tier::kUnrolled, 4));
}

TEST(CpuModel, SpeedupIsMonotoneInThreads) {
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  for (auto tier : {kernels::Tier::kGeneral, kernels::Tier::kUnrolled}) {
    double prev = 0;
    for (int p = 1; p <= 8; ++p) {
      const double s = parallel::modeled_speedup(spec, params, tier, p);
      EXPECT_GT(s, prev) << "p=" << p;
      prev = s;
    }
  }
}

TEST(CpuModel, ModeledTimeDividesMeasured) {
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  const double t1 = 2.0;
  const double t8 = parallel::modeled_time(spec, params,
                                           kernels::Tier::kGeneral, 8, t1);
  EXPECT_NEAR(t8, t1 / parallel::modeled_speedup(spec, params,
                                                 kernels::Tier::kGeneral, 8),
              1e-12);
}

TEST(CpuModel, RejectsThreadsBeyondMachine) {
  parallel::CpuSpec spec;
  parallel::CpuModelParams params;
  EXPECT_THROW((void)parallel::modeled_speedup(spec, params,
                                               kernels::Tier::kGeneral, 9),
               InvalidArgument);
  EXPECT_THROW((void)parallel::modeled_speedup(spec, params,
                                               kernels::Tier::kGeneral, 0),
               InvalidArgument);
}

TEST(CpuModel, PeakFlopsMatchPaperNehalem) {
  parallel::CpuSpec spec;
  EXPECT_DOUBLE_EQ(spec.peak_sp_gflops(1), 22.4);
  EXPECT_DOUBLE_EQ(spec.peak_sp_gflops(8), 179.2);
  EXPECT_EQ(spec.total_cores(), 8);
}

}  // namespace
}  // namespace te
