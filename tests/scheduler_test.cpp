// Scheduler subsystem tests: the streaming scheduler must reproduce the
// one-shot backends bitwise for every tier, chunk size and backend; the
// shared table cache and the modeled copy/compute pipeline are unit-tested
// on their own.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "te/batch/scheduler.hpp"
#include "te/io/checkpoint.hpp"

namespace te::batch {
namespace {

using kernels::Tier;

template <Real T>
void expect_bitwise(const std::vector<sshopm::Result<T>>& a,
                    const std::vector<sshopm::Result<T>>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lambda, b[i].lambda) << what << " slot " << i;
    EXPECT_EQ(a[i].x, b[i].x) << what << " slot " << i;
    EXPECT_EQ(a[i].iterations, b[i].iterations) << what << " slot " << i;
    EXPECT_EQ(a[i].converged, b[i].converged) << what << " slot " << i;
  }
}

// ---------------------------------------------------------------------------
// StreamPipeline: the modeled two-engine (copy + compute) timeline.

TEST(StreamPipeline, SingleChunkHasNothingToHide) {
  gpusim::StreamPipeline p(2);
  p.record({1e-4, 3e-4, 2e-4});
  EXPECT_EQ(p.chunks(), 1);
  EXPECT_DOUBLE_EQ(p.serialized_seconds(), 6e-4);
  EXPECT_DOUBLE_EQ(p.overlapped_seconds(), 6e-4);
  EXPECT_DOUBLE_EQ(p.transfer_seconds(), 3e-4);
  EXPECT_DOUBLE_EQ(p.compute_busy_seconds(), 3e-4);
  EXPECT_DOUBLE_EQ(p.hidden_seconds(), 0.0);
}

TEST(StreamPipeline, DoubleBufferOverlapsTransferWithCompute) {
  // Equal-cost chunks: with two buffers, chunk i+1's H2D runs during chunk
  // i's kernel, so only the first H2D and last D2H stay exposed.
  gpusim::StreamPipeline p(2);
  const gpusim::ChunkCost c{1e-4, 1e-4, 1e-4};
  for (int i = 0; i < 8; ++i) p.record(c);
  EXPECT_DOUBLE_EQ(p.serialized_seconds(), 24e-4);
  EXPECT_LT(p.overlapped_seconds(), p.serialized_seconds());
  // Lower bound: each engine's busy time is a critical-path floor -- the
  // compute engine, and each DMA direction (transfer_seconds spans two
  // engines, so its floor is half the sum).
  EXPECT_GE(p.overlapped_seconds(), p.transfer_seconds() / 2);
  EXPECT_GE(p.overlapped_seconds(), p.compute_busy_seconds());
  EXPECT_GT(p.hidden_seconds(), 0.0);
  // Balanced equal-cost chunks: the pipeline reduces 3n phases to
  // first H2D + n kernels + last D2H = (n + 2) phases.
  EXPECT_DOUBLE_EQ(p.overlapped_seconds(), 10e-4);
}

TEST(StreamPipeline, OverlappedNeverExceedsSerialized) {
  gpusim::StreamPipeline one(1);
  gpusim::StreamPipeline two(2);
  gpusim::StreamPipeline four(4);
  // Irregular chunk mix, including zero-cost phases.
  const gpusim::ChunkCost costs[] = {
      {2e-4, 1e-4, 0.0}, {0.0, 5e-4, 1e-4}, {1e-4, 0.0, 1e-4},
      {3e-4, 3e-4, 3e-4}, {0.0, 0.0, 0.0},  {5e-4, 1e-4, 2e-4},
  };
  for (const auto& c : costs) {
    one.record(c);
    two.record(c);
    four.record(c);
  }
  EXPECT_LE(two.overlapped_seconds(), two.serialized_seconds());
  EXPECT_LE(four.overlapped_seconds(), four.serialized_seconds());
  // More buffers can only help (monotone in buffer count).
  EXPECT_LE(two.overlapped_seconds(), one.overlapped_seconds());
  EXPECT_LE(four.overlapped_seconds(), two.overlapped_seconds());
  EXPECT_DOUBLE_EQ(one.serialized_seconds(), two.serialized_seconds());
}

TEST(StreamPipeline, SingleBufferStillOverlapsD2hWithNextKernel) {
  // One staging buffer serializes H2D against the previous compute, but the
  // copy engine is distinct, so the timeline is still <= fully serialized.
  gpusim::StreamPipeline p(1);
  for (int i = 0; i < 4; ++i) p.record({1e-4, 2e-4, 1e-4});
  EXPECT_LE(p.overlapped_seconds(), p.serialized_seconds());
  EXPECT_GE(p.overlapped_seconds(), p.compute_busy_seconds());
}

TEST(StreamPipeline, ResetClearsTimeline) {
  gpusim::StreamPipeline p(2);
  p.record({1e-4, 1e-4, 1e-4});
  p.reset();
  EXPECT_EQ(p.chunks(), 0);
  EXPECT_DOUBLE_EQ(p.overlapped_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(p.serialized_seconds(), 0.0);
}

TEST(StreamPipeline, RejectsBadArguments) {
  EXPECT_THROW(gpusim::StreamPipeline(0), InvalidArgument);
  gpusim::StreamPipeline p(2);
  EXPECT_THROW(p.record({-1e-4, 0.0, 0.0}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// TableCache: shared (order, dim)-keyed precompute.

TEST(TableCache, TableFreeTiersBypassTheCache) {
  TableCache<float> cache(4);
  for (Tier tier : {Tier::kGeneral, Tier::kUnrolled, Tier::kJit}) {
    EXPECT_EQ(cache.get(4, 3, tier), nullptr);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
}

TEST(TableCache, MissThenHitSharesOneBuild) {
  TableCache<double> cache(4);
  // Host precomputed and device blocked read the same tables: one build
  // per shape, whichever table tier asks first.
  const auto a = cache.get(4, 3, Tier::kPrecomputed);
  const auto b = cache.get(4, 3, Tier::kBlocked);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // same underlying tables
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
  // A distinct shape is a distinct entry.
  const auto c = cache.get(3, 3, Tier::kBlocked);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TableCache, EvictsLeastRecentlyUsed) {
  TableCache<float> cache(2);
  const auto a = cache.get(3, 2, Tier::kPrecomputed);
  (void)cache.get(3, 3, Tier::kPrecomputed);
  (void)cache.get(3, 2, Tier::kPrecomputed);  // refresh (3,2): (3,3) is LRU
  (void)cache.get(3, 4, Tier::kPrecomputed);  // evicts (3,3)
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.size(), 2u);
  // (3,2) survived the eviction...
  (void)cache.get(3, 2, Tier::kPrecomputed);
  EXPECT_EQ(cache.stats().hits, 2);
  // ...and an evicted entry's shared_ptr stays usable.
  (void)cache.get(3, 5, Tier::kPrecomputed);  // evicts (3,4) or (3,2)
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->order(), 3);
  EXPECT_EQ(a->dim(), 2);
}

TEST(TableCache, RejectsZeroCapacity) {
  EXPECT_THROW(TableCache<float>(0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Byte-budgeted TableCache (bytes, not entries).

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

// ---------------------------------------------------------------------------
// Scheduler: differential equivalence against the one-shot backends.

TEST(SchedulerCpu, BitwiseEqualToSequentialForEveryTier) {
  auto p = BatchProblem<float>::random(31, 10, 6, 4, 3);
  p.options.alpha = 1.0;
  for (Tier tier : {Tier::kGeneral, Tier::kPrecomputed, Tier::kUnrolled}) {
    const auto ref = solve_cpu_sequential(p, tier);
    for (int chunk : {1, 3, 10, 64}) {
      SchedulerOptions opt;
      opt.chunk_tensors = chunk;
      Scheduler<float> sched(Backend::kCpuSequential, opt);
      const JobId id = sched.submit(p, tier);
      sched.run();
      expect_bitwise(ref.results, sched.result(id).results,
                     kernels::tier_name(tier).data());
      EXPECT_EQ(ref.useful_flops, sched.result(id).useful_flops);
    }
  }
}

TEST(SchedulerCpu, ParallelBackendBitwiseEqualAndPoolIsReused) {
  auto p = BatchProblem<double>::random(32, 9, 5, 3, 4);
  p.options.alpha = 2.0;
  SchedulerOptions opt;
  opt.chunk_tensors = 2;
  opt.cpu_threads = 4;
  Scheduler<double> sched(Backend::kCpuParallel, opt);
  std::vector<JobId> jobs;
  std::vector<Tier> tiers = {Tier::kGeneral, Tier::kPrecomputed,
                             Tier::kUnrolled};
  for (Tier tier : tiers) jobs.push_back(sched.submit(p, tier));
  EXPECT_EQ(sched.pending_chunks(), 15);  // 3 jobs x ceil(9 / 2)
  EXPECT_EQ(sched.run(), 15);
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const auto ref = solve_cpu_sequential(p, tiers[i]);
    expect_bitwise(ref.results, sched.result(jobs[i]).results,
                   kernels::tier_name(tiers[i]).data());
  }
  // One pool drove all chunks of all jobs.
  EXPECT_EQ(sched.pool().num_threads(), 4);
}

TEST(SchedulerGpu, BitwiseEqualToOneShotLaunchForEveryTier) {
  auto p = BatchProblem<float>::random(33, 12, 8, 4, 3);
  p.options.alpha = 0.5;
  for (Tier tier : {Tier::kGeneral, Tier::kBlocked, Tier::kUnrolled}) {
    const auto ref = solve_gpusim(p, tier);
    for (int chunk : {1, 5, 12}) {
      SchedulerOptions opt;
      opt.chunk_tensors = chunk;
      Scheduler<float> sched(Backend::kGpuSim, opt);
      const JobId id = sched.submit(p, tier);
      sched.run();
      expect_bitwise(ref.results, sched.result(id).results,
                     kernels::tier_name(tier).data());
      EXPECT_TRUE(sched.result(id).gpu.launchable);
      EXPECT_GT(sched.result(id).modeled_seconds, 0.0);
    }
  }
}

TEST(SchedulerGpu, PipelineHidesTransferBehindCompute) {
  auto p = BatchProblem<float>::random(34, 24, 16, 4, 3);
  SchedulerOptions opt;
  opt.chunk_tensors = 4;  // 6 chunks: enough to pipeline
  Scheduler<float> sched(Backend::kGpuSim, opt);
  const JobId id = sched.submit(p, Tier::kUnrolled);
  sched.run();
  const auto rep = sched.job_pipeline(id);
  EXPECT_EQ(rep.chunks, 6);
  EXPECT_LE(rep.overlapped_seconds, rep.serialized_seconds);
  EXPECT_GT(rep.hidden_seconds(), 0.0);
  EXPECT_GE(rep.overlapped_seconds, rep.compute_seconds);
  EXPECT_GE(rep.overlapped_seconds, rep.transfer_seconds / 2);
  // The job's reported modeled time is the overlapped makespan.
  EXPECT_DOUBLE_EQ(sched.result(id).modeled_seconds, rep.overlapped_seconds);
  EXPECT_DOUBLE_EQ(sched.result(id).transfer_seconds, rep.transfer_seconds);
}

TEST(SchedulerGpu, SingleChunkMatchesOneShotTimingModel) {
  // With one chunk there is nothing to overlap: the scheduler's transfer
  // model must collapse to the one-shot solve_gpusim numbers.
  auto p = BatchProblem<float>::random(35, 8, 8, 4, 3);
  const auto ref = solve_gpusim(p, Tier::kUnrolled);
  SchedulerOptions opt;
  opt.chunk_tensors = 100;
  Scheduler<float> sched(Backend::kGpuSim, opt);
  const JobId id = sched.submit(p, Tier::kUnrolled);
  sched.run();
  const auto rep = sched.job_pipeline(id);
  EXPECT_EQ(rep.chunks, 1);
  EXPECT_DOUBLE_EQ(rep.overlapped_seconds, rep.serialized_seconds);
  EXPECT_NEAR(sched.result(id).transfer_seconds, ref.transfer_seconds,
              1e-15);
  EXPECT_NEAR(rep.compute_seconds, ref.gpu.modeled_seconds, 1e-15);
}

TEST(SchedulerCache, SameShapeJobsHitSharedTables) {
  SchedulerOptions opt;
  opt.chunk_tensors = 3;
  Scheduler<double> sched(Backend::kCpuSequential, opt);
  auto a = BatchProblem<double>::random(36, 6, 4, 4, 3);
  auto b = BatchProblem<double>::random(37, 6, 4, 4, 3);  // same shape
  auto c = BatchProblem<double>::random(38, 4, 4, 3, 5);  // different shape
  const auto ra = sched.submit(a, Tier::kPrecomputed);
  const auto rb = sched.submit(b, Tier::kPrecomputed);
  const auto rc = sched.submit(c, Tier::kPrecomputed);
  sched.run();
  const auto stats = sched.cache_stats();
  // 6 chunks touch tables: (4,3) misses once then hits; (3,5) misses once.
  EXPECT_EQ(stats.misses, 2);
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.hit_rate(), 0.0);
  // Sharing must not perturb results.
  expect_bitwise(solve_cpu_sequential(a, Tier::kPrecomputed).results,
                 sched.result(ra).results, "job a");
  expect_bitwise(solve_cpu_sequential(b, Tier::kPrecomputed).results,
                 sched.result(rb).results, "job b");
  expect_bitwise(solve_cpu_sequential(c, Tier::kPrecomputed).results,
                 sched.result(rc).results, "job c");
}

TEST(SchedulerCache, EvictionsAreCountedUnderTinyCapacity) {
  SchedulerOptions opt;
  opt.cache_capacity = 1;
  Scheduler<float> sched(Backend::kCpuSequential, opt);
  const auto a = sched.submit(BatchProblem<float>::random(39, 2, 2, 4, 3),
                              Tier::kPrecomputed);
  const auto b = sched.submit(BatchProblem<float>::random(40, 2, 2, 3, 4),
                              Tier::kPrecomputed);
  sched.run();
  (void)a;
  (void)b;
  EXPECT_GE(sched.cache_stats().evictions, 1);
}

TEST(SchedulerHeterogeneous, MixedShapesAndTiersInOneQueue) {
  SchedulerOptions opt;
  opt.chunk_tensors = 2;
  Scheduler<float> sched(Backend::kCpuSequential, opt);
  auto p1 = BatchProblem<float>::random(41, 5, 3, 4, 3);
  auto p2 = BatchProblem<float>::random(42, 3, 4, 3, 6);
  auto p3 = BatchProblem<float>::random(43, 4, 2, 6, 2);
  const auto j1 = sched.submit(p1, Tier::kUnrolled);
  const auto j2 = sched.submit(p2, Tier::kPrecomputed);
  const auto j3 = sched.submit(p3, Tier::kGeneral);
  sched.run();
  expect_bitwise(solve_cpu_sequential(p1, Tier::kUnrolled).results,
                 sched.result(j1).results, "4x3 unrolled");
  expect_bitwise(solve_cpu_sequential(p2, Tier::kPrecomputed).results,
                 sched.result(j2).results, "3x6 precomputed");
  expect_bitwise(solve_cpu_sequential(p3, Tier::kGeneral).results,
                 sched.result(j3).results, "6x2 general");
}

TEST(SchedulerStreaming, SubmitAfterRunExtendsTheStream) {
  Scheduler<float> sched(Backend::kCpuSequential);
  auto p1 = BatchProblem<float>::random(44, 3, 2, 4, 3);
  const auto j1 = sched.submit(p1, Tier::kGeneral);
  sched.run();
  const auto first = sched.result(j1).results;
  auto p2 = BatchProblem<float>::random(45, 2, 2, 4, 3);
  const auto j2 = sched.submit(p2, Tier::kGeneral);
  EXPECT_EQ(sched.pending_chunks(), 1);
  sched.run();
  // Earlier results are untouched; the new job matches its one-shot run.
  expect_bitwise(first, sched.result(j1).results, "wave 1 stable");
  expect_bitwise(solve_cpu_sequential(p2, Tier::kGeneral).results,
                 sched.result(j2).results, "wave 2");
}

TEST(SchedulerPool, TwoSchedulersCanShareOneExternalPool) {
  ThreadPool pool(3);
  SchedulerOptions opt;
  opt.chunk_tensors = 2;
  Scheduler<float> s1(Backend::kCpuParallel, opt, &pool);
  Scheduler<float> s2(Backend::kCpuParallel, opt, &pool);
  auto p = BatchProblem<float>::random(46, 6, 4, 4, 3);
  const auto j1 = s1.submit(p, Tier::kGeneral);
  const auto j2 = s2.submit(p, Tier::kPrecomputed);
  s1.run();
  s2.run();
  EXPECT_EQ(&s1.pool(), &pool);
  EXPECT_EQ(&s2.pool(), &pool);
  expect_bitwise(solve_cpu_sequential(p, Tier::kGeneral).results,
                 s1.result(j1).results, "shared pool s1");
  expect_bitwise(solve_cpu_sequential(p, Tier::kPrecomputed).results,
                 s2.result(j2).results, "shared pool s2");
}

// ---------------------------------------------------------------------------
// kCpuParallel claimed dispatch: one parallel_for per run()/run_job() over
// the tensors of every chunk it executes.

struct MixedJobs {
  BatchProblem<float> p1 = BatchProblem<float>::random(51, 20, 5, 4, 3);
  BatchProblem<float> p2 = BatchProblem<float>::random(52, 9, 4, 3, 6);
  BatchProblem<float> p3 = BatchProblem<float>::random(53, 11, 3, 6, 2);
  /// One job per problem, each on its own tier. Points into this object,
  /// which is never copied.
  std::vector<std::pair<const BatchProblem<float>*, Tier>> jobs = {
      {&p1, Tier::kUnrolled}, {&p2, Tier::kPrecomputed}, {&p3, Tier::kGeneral}};
};

std::int64_t counter_value([[maybe_unused]] const char* name) {
#if TE_OBS_ENABLED
  return obs::global().counter(name).value();
#else
  return 0;
#endif
}

TEST(SchedulerClaimed, MixedJobsMatchSequentialAtEveryChunkAndPoolSize) {
  MixedJobs mix;
  mix.p1.options.alpha = 1.0;
  for (int chunk : {1, 7, 32}) {
    SchedulerOptions opt;
    opt.chunk_tensors = chunk;
    // The sequential scheduler's cache counts are the reference: the
    // claimed dispatch still fetches tables once per chunk.
    Scheduler<float> seq(Backend::kCpuSequential, opt);
    for (const auto& [p, tier] : mix.jobs) (void)seq.submit(*p, tier);
    seq.run();
    for (int workers : {1, 3, 8}) {
      ThreadPool pool(workers);
      Scheduler<float> sched(Backend::kCpuParallel, opt, &pool);
      std::vector<JobId> ids;
      for (const auto& [p, tier] : mix.jobs) {
        ids.push_back(sched.submit(*p, tier));
      }
      const int total = sched.pending_chunks();
      EXPECT_EQ(sched.run(), total);
      EXPECT_EQ(sched.pending_chunks(), 0);
      for (std::size_t j = 0; j < ids.size(); ++j) {
        const auto& [p, tier] = mix.jobs[j];
        const auto ref = solve_cpu_sequential(*p, tier);
        const BatchResult<float>& got = sched.result(ids[j]);
        expect_bitwise(ref.results, got.results,
                       kernels::tier_name(tier).data());
        for (std::size_t s = 0; s < ref.results.size(); ++s) {
          EXPECT_EQ(ref.results[s].failure, got.results[s].failure) << s;
        }
        EXPECT_EQ(ref.useful_flops, got.useful_flops);
        EXPECT_EQ(sched.chunks_done(ids[j]), sched.chunks_total(ids[j]));
        EXPECT_GT(got.wall_seconds, 0.0);
      }
      EXPECT_EQ(sched.cache_stats().hits, seq.cache_stats().hits)
          << "chunk " << chunk << " workers " << workers;
      EXPECT_EQ(sched.cache_stats().misses, seq.cache_stats().misses)
          << "chunk " << chunk << " workers " << workers;
    }
  }
}

TEST(SchedulerClaimed, BoundedRunExecutesExactlyThatManyChunks) {
  MixedJobs mix;
  SchedulerOptions opt;
  opt.chunk_tensors = 4;
  opt.cpu_threads = 3;
  Scheduler<float> sched(Backend::kCpuParallel, opt);
  std::vector<JobId> ids;
  for (const auto& [p, tier] : mix.jobs) ids.push_back(sched.submit(*p, tier));
  ASSERT_EQ(sched.pending_chunks(), 5 + 3 + 3);
  const std::int64_t executed0 =
      counter_value("batch.scheduler.chunks_executed");
  EXPECT_EQ(sched.run(3), 3);
  EXPECT_EQ(sched.pending_chunks(), 8);
  EXPECT_EQ(sched.chunks_done(ids[0]), 3);  // FIFO: the first job's chunks
  EXPECT_EQ(sched.chunks_done(ids[1]), 0);
  EXPECT_FALSE(sched.is_done(ids[0]));
  // A bounded run that crosses a job boundary.
  EXPECT_EQ(sched.run(4), 4);
  EXPECT_EQ(sched.pending_chunks(), 4);
  EXPECT_TRUE(sched.is_done(ids[0]));
  EXPECT_EQ(sched.chunks_done(ids[1]), 2);
  // run_job drains one job's chunks and leaves the others queued.
  EXPECT_EQ(sched.run_job(ids[2], 2), 2);
  EXPECT_EQ(sched.chunks_done(ids[2]), 2);
  EXPECT_EQ(sched.pending_chunks(), 2);
  EXPECT_EQ(sched.run(), 2);
  EXPECT_EQ(sched.run(), 0);
#if TE_OBS_ENABLED
  EXPECT_EQ(counter_value("batch.scheduler.chunks_executed") - executed0, 11);
#else
  (void)executed0;
#endif
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const auto& [p, tier] = mix.jobs[j];
    expect_bitwise(solve_cpu_sequential(*p, tier).results,
                   sched.result(ids[j]).results,
                   kernels::tier_name(tier).data());
  }
}

TEST(SchedulerClaimed, CheckpointAppendsOneRecordPerExecutedChunk) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "te_sched_test_claimed.tetc")
          .string();
  std::filesystem::remove(path);
  MixedJobs mix;
  SchedulerOptions opt;
  opt.chunk_tensors = 4;
  opt.cpu_threads = 3;
  opt.checkpoint_path = path;
  std::vector<JobId> ids;
  {
    Scheduler<float> sched(Backend::kCpuParallel, opt);
    for (const auto& [p, tier] : mix.jobs) {
      ids.push_back(sched.submit(*p, tier));
    }
    const std::int64_t appended0 =
        counter_value("io.checkpoint.chunks_appended");
    EXPECT_EQ(sched.run(5), 5);
#if TE_OBS_ENABLED
    EXPECT_EQ(counter_value("io.checkpoint.chunks_appended") - appended0, 5);
#else
    (void)appended0;
#endif
  }
  // The log holds exactly the executed chunks; a resumed scheduler restores
  // them and executes (and appends) only the rest.
  EXPECT_EQ(io::load_checkpoint<float>(path).chunks.size(), 5u);
  {
    Scheduler<float> sched(Backend::kCpuParallel, opt);
    for (const auto& [p, tier] : mix.jobs) (void)sched.submit(*p, tier);
    const std::int64_t appended0 =
        counter_value("io.checkpoint.chunks_appended");
    EXPECT_EQ(sched.run(), 6);
#if TE_OBS_ENABLED
    EXPECT_EQ(counter_value("io.checkpoint.chunks_appended") - appended0, 6);
#else
    (void)appended0;
#endif
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const auto& [p, tier] = mix.jobs[j];
      expect_bitwise(solve_cpu_sequential(*p, tier).results,
                     sched.result(ids[j]).results,
                     kernels::tier_name(tier).data());
    }
  }
  EXPECT_EQ(io::load_checkpoint<float>(path).chunks.size(), 11u);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Validation / negative paths.

TEST(SchedulerValidation, RejectsBadOptions) {
  SchedulerOptions opt;
  opt.chunk_tensors = 0;
  EXPECT_THROW(Scheduler<float>(Backend::kCpuSequential, opt),
               InvalidArgument);
  opt = {};
  opt.cpu_threads = 0;
  EXPECT_THROW(Scheduler<float>(Backend::kCpuParallel, opt),
               InvalidArgument);
}

TEST(SchedulerValidation, RejectsMalformedJobs) {
  Scheduler<float> sched(Backend::kCpuSequential);
  // Empty job.
  BatchProblem<float> empty;
  empty.order = 4;
  empty.dim = 3;
  EXPECT_THROW((void)sched.submit(empty, Tier::kGeneral), InvalidArgument);
  // Tensor shape disagrees with the declared job shape.
  auto bad_tensor = BatchProblem<float>::random(47, 2, 2, 4, 3);
  bad_tensor.tensors[1] = SymmetricTensor<float>(3, 3);
  EXPECT_THROW((void)sched.submit(bad_tensor, Tier::kGeneral),
               InvalidArgument);
  // Start vector of the wrong length.
  auto bad_start = BatchProblem<float>::random(48, 2, 2, 4, 3);
  bad_start.starts[0].resize(5);
  EXPECT_THROW((void)sched.submit(bad_start, Tier::kGeneral),
               InvalidArgument);
  // Unrolled tier without a registry instantiation for the shape.
  auto no_unrolled = BatchProblem<float>::random(49, 2, 2, 7, 3);
  EXPECT_THROW((void)sched.submit(no_unrolled, Tier::kUnrolled),
               InvalidArgument);
}

TEST(SchedulerValidation, GpuBackendRejectsCpuOnlyTiersAndWideDims) {
  Scheduler<float> sched(Backend::kGpuSim);
  auto p = BatchProblem<float>::random(50, 2, 2, 4, 3);
  EXPECT_THROW((void)sched.submit(p, Tier::kPrecomputed), InvalidArgument);
  EXPECT_THROW((void)sched.submit(p, Tier::kJit), InvalidArgument);
  auto wide = BatchProblem<float>::random(51, 2, 2, 3, gpusim::kMaxDim + 1);
  EXPECT_THROW((void)sched.submit(wide, Tier::kGeneral), InvalidArgument);
}

TEST(SchedulerValidation, CpuBackendsRejectDeviceOnlyTiers) {
  // kBlocked runs on the GPU backend only. CPU schedulers refuse it at
  // submit, before any chunk runs -- also past the blocked register cap
  // (dim 40), where a queued chunk used to throw from run() instead.
  auto p = BatchProblem<float>::random(54, 2, 2, 4, 3);
  auto wide = BatchProblem<float>::random(55, 1, 1, 3, 40);
  for (const Backend b : {Backend::kCpuSequential, Backend::kCpuParallel}) {
    Scheduler<float> sched(b);
    EXPECT_THROW((void)sched.submit(p, Tier::kBlocked), InvalidArgument);
    EXPECT_THROW((void)sched.submit(wide, Tier::kBlocked), InvalidArgument);
    EXPECT_EQ(sched.pending_chunks(), 0);
    EXPECT_EQ(sched.run(), 0);
  }
  // The one-shot CPU backends refuse it the same way.
  EXPECT_THROW((void)solve_cpu_sequential(p, Tier::kBlocked), InvalidArgument);
  ThreadPool pool(2);
  EXPECT_THROW((void)solve_cpu_parallel(p, Tier::kBlocked, pool),
               InvalidArgument);
}

TEST(SchedulerValidation, ResultAccessIsGuarded) {
  Scheduler<float> sched(Backend::kCpuSequential);
  EXPECT_THROW((void)sched.result(0), InvalidArgument);  // unknown id
  const auto id = sched.submit(BatchProblem<float>::random(52, 2, 2, 4, 3),
                               Tier::kGeneral);
  EXPECT_THROW((void)sched.result(id), InvalidArgument);  // not yet run
  EXPECT_THROW((void)sched.job_pipeline(id), InvalidArgument);
  sched.run();
  EXPECT_NO_THROW((void)sched.result(id));
  EXPECT_THROW((void)sched.result(id + 1), InvalidArgument);
}

// ---------------------------------------------------------------------------
// BatchResult / BatchProblem hardening that rides along with the scheduler.

TEST(BatchValidation, ResultAtIsBoundsChecked) {
  auto p = BatchProblem<float>::random(53, 2, 3, 4, 3);
  const auto r = solve_cpu_sequential(p, Tier::kGeneral);
  EXPECT_NO_THROW((void)r.at(1, 2));
  EXPECT_THROW((void)r.at(-1, 0), InvalidArgument);
  EXPECT_THROW((void)r.at(2, 0), InvalidArgument);
  EXPECT_THROW((void)r.at(0, -1), InvalidArgument);
  EXPECT_THROW((void)r.at(0, 3), InvalidArgument);
}

TEST(BatchValidation, RandomRejectsDegenerateShapes) {
  EXPECT_THROW((void)BatchProblem<float>::random(1, 0, 4, 4, 3),
               InvalidArgument);
  EXPECT_THROW((void)BatchProblem<float>::random(1, 4, 0, 4, 3),
               InvalidArgument);
  EXPECT_THROW((void)BatchProblem<float>::random(1, 4, 4, 2, 3),
               InvalidArgument);  // order < 3
  EXPECT_THROW((void)BatchProblem<float>::random(1, 4, 4, 4, 1),
               InvalidArgument);  // dim < 2
}

}  // namespace
}  // namespace te::batch
