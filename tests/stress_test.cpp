// Concurrency stress suite (ctest label: stress). Exercises the ThreadPool
// under oversubscription, exception storms and concurrent callers, and the
// scheduler sharing one pool across instances running from several host
// threads. scripts/ci.sh runs this binary (with the parallel/batch/
// scheduler suites) under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "te/batch/scheduler.hpp"
#include "te/parallel/thread_pool.hpp"

namespace te {
namespace {

TEST(ThreadPoolStress, OversubscribedPoolRunsEveryIterationOnce) {
  // Far more workers than this host has cores: results must not change.
  ThreadPool pool(32);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for(5000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "iteration " << i;
  }
}

TEST(ThreadPoolStress, EmptySingletonAndChunkEdgeCases) {
  ThreadPool pool(16);
  int sequential_calls = 0;
  pool.parallel_for(0, [&](std::int64_t) { ++sequential_calls; });
  EXPECT_EQ(sequential_calls, 0);

  std::atomic<int> one{0};
  pool.parallel_for(1, [&](std::int64_t i) {
    EXPECT_EQ(i, 0);
    one.fetch_add(1);
  });
  EXPECT_EQ(one.load(), 1);

  // Fewer items than workers: only that many tasks are enqueued, and
  // every index still runs exactly once.
  std::vector<std::atomic<int>> covered(3);
  pool.parallel_for(3, [&](std::int64_t i) {
    covered[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& c : covered) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolStress, ExceptionStormPropagatesOnePerCall) {
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    // Many iterations throw mid-chunk; exactly one exception must surface
    // per call and the others must be swallowed without leaking state.
    EXPECT_THROW(pool.parallel_for(200,
                                   [&](std::int64_t i) {
                                     if (i % 3 == 0) {
                                       throw std::runtime_error("storm");
                                     }
                                   }),
                 std::runtime_error);
    // The pool must be fully drained and reusable immediately.
    std::atomic<int> ok{0};
    pool.parallel_for(64, [&](std::int64_t) {
      ok.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ok.load(), 64) << "round " << round;
  }
}

TEST(ThreadPoolStress, MixedThrowingAndCleanWorkInterleaved) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  for (int round = 0; round < 10; ++round) {
    try {
      pool.parallel_for(100, [&](std::int64_t i) {
        if (round % 2 == 1 && i == 50) throw std::logic_error("mid-chunk");
        completed.fetch_add(1, std::memory_order_relaxed);
      });
    } catch (const std::logic_error&) {
      // Expected on odd rounds.
    }
  }
  // Even rounds alone contribute 5 * 100 completions; odd rounds add a
  // partial count (iterations before/alongside the throw still ran).
  EXPECT_GE(completed.load(), 500);
}

TEST(ThreadPoolStress, ConcurrentCallersShareOnePool) {
  // Several host threads drive the same pool at once. Every caller's
  // iteration space must execute exactly once, and each caller waits for
  // its own indices only.
  ThreadPool pool(8);
  constexpr int kCallers = 6;
  constexpr int kIterations = 400;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kIterations);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.parallel_for(kIterations, [&, c](std::int64_t i) {
        hits[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)]
            .fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (int i = 0; i < kIterations; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)]
                    .load(),
                1)
          << "caller " << c << " iteration " << i;
    }
  }
}

TEST(SchedulerStress, ConcurrentSchedulersShareOnePoolBitwise) {
  // Two scheduler instances on one lent pool, run from two host threads --
  // the TSan pass watches the shared queue, the table cache mutex and the
  // pool handoff. Results must still be bitwise-identical to the one-shot
  // sequential backend.
  using batch::Backend;
  using batch::BatchProblem;
  using batch::Scheduler;
  using batch::SchedulerOptions;
  using kernels::Tier;

  auto p1 = BatchProblem<float>::random(61, 8, 4, 4, 3);
  auto p2 = BatchProblem<float>::random(62, 6, 4, 3, 4);
  const auto ref1 = solve_cpu_sequential(p1, Tier::kPrecomputed);
  const auto ref2 = solve_cpu_sequential(p2, Tier::kPrecomputed);

  ThreadPool pool(6);
  SchedulerOptions opt;
  opt.chunk_tensors = 2;
  Scheduler<float> s1(Backend::kCpuParallel, opt, &pool);
  Scheduler<float> s2(Backend::kCpuParallel, opt, &pool);
  const auto j1 = s1.submit(p1, Tier::kPrecomputed);
  const auto j2 = s2.submit(p2, Tier::kPrecomputed);

  std::thread t1([&] { s1.run(); });
  std::thread t2([&] { s2.run(); });
  t1.join();
  t2.join();

  ASSERT_EQ(ref1.results.size(), s1.result(j1).results.size());
  for (std::size_t i = 0; i < ref1.results.size(); ++i) {
    EXPECT_EQ(ref1.results[i].lambda, s1.result(j1).results[i].lambda);
    EXPECT_EQ(ref1.results[i].x, s1.result(j1).results[i].x);
  }
  ASSERT_EQ(ref2.results.size(), s2.result(j2).results.size());
  for (std::size_t i = 0; i < ref2.results.size(); ++i) {
    EXPECT_EQ(ref2.results[i].lambda, s2.result(j2).results[i].lambda);
    EXPECT_EQ(ref2.results[i].x, s2.result(j2).results[i].x);
  }
}

TEST(TableCacheStress, ConcurrentGettersSeeOneBuildPerKey) {
  batch::TableCache<float> cache(16);
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<bool> mismatch{false};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // Both table tiers ask: the cache keys by shape, so they share builds.
    const auto tier =
        t % 2 == 0 ? kernels::Tier::kPrecomputed : kernels::Tier::kBlocked;
    threads.emplace_back([&, tier] {
      for (int r = 0; r < kRounds; ++r) {
        const int order = 3 + (r % 2);
        const int dim = 3 + (r % 3);
        const auto tables = cache.get(order, dim, tier);
        if (tables == nullptr || tables->order() != order ||
            tables->dim() != dim) {
          mismatch.store(true);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(mismatch.load());
  const auto stats = cache.stats();
  // 6 distinct shapes; every other access is a hit.
  EXPECT_EQ(stats.misses, 6);
  EXPECT_EQ(stats.hits, kThreads * kRounds - 6);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(TableCacheStress, SchedulerShardsShareOneCacheUnderContention) {
  // The te::serve topology: several Scheduler shards on separate host
  // threads, all resolving tables through ONE shared cache with a byte
  // budget tight enough to force eviction churn. Builds happen outside the
  // cache lock, so shards asking for different shapes must not serialize
  // behind each other, and every shard must still see correct tables
  // (results bitwise-identical to the one-shot backend).
  constexpr int kShards = 6;
  const auto cache = std::make_shared<batch::TableCache<float>>(
      /*capacity=*/2, /*max_bytes=*/1);  // thrash: evict on every insert
  std::vector<batch::BatchProblem<float>> problems;
  problems.reserve(kShards);
  for (int s = 0; s < kShards; ++s) {
    problems.push_back(batch::BatchProblem<float>::random(
        900 + static_cast<std::uint64_t>(s), 4, 2, 3, 3 + (s % 3)));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> shards;
  shards.reserve(kShards);
  for (int s = 0; s < kShards; ++s) {
    shards.emplace_back([&, s] {
      batch::SchedulerOptions opt;
      opt.chunk_tensors = 1;  // 4 chunks: repeated cache round-trips
      batch::Scheduler<float> shard(batch::Backend::kCpuSequential, opt,
                                    nullptr, cache);
      const batch::JobId id =
          shard.submit(problems[static_cast<std::size_t>(s)],
                       kernels::Tier::kPrecomputed);
      shard.run();
      const auto& got = shard.result(id).results;
      const auto want = batch::solve_cpu_sequential(
          problems[static_cast<std::size_t>(s)], kernels::Tier::kPrecomputed);
      if (got.size() != want.results.size()) {
        failures.fetch_add(1);
        return;
      }
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].lambda != want.results[i].lambda ||
            got[i].x != want.results[i].x) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : shards) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = cache->stats();
  // 3 distinct shapes across 6 shards x 4 chunks = 24 gets. Concurrent
  // same-key misses may each rebuild after eviction churn, but the ledger
  // must balance: every get was a hit or a miss, and the thrashing budget
  // forced evictions.
  EXPECT_EQ(stats.hits + stats.misses, kShards * 4);
  EXPECT_GE(stats.misses, 3);
  EXPECT_GE(stats.evictions, 1);
  EXPECT_LE(cache->size(), 2u);
}

}  // namespace
}  // namespace te
