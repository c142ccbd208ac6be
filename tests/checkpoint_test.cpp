// Scheduler checkpoint/resume tests: a run killed after k chunks and
// resumed from its write-ahead log must finish with results bitwise
// identical to an uninterrupted run -- on every backend. The log is pinned
// to one exact problem by a fingerprint; mismatched resumes are refused.
// The TableCache disk-spill tier (warm-starting KernelTables from a .tetc
// file) rides along here since it shares the persistence machinery.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "te/batch/scheduler.hpp"
#include "te/io/reader.hpp"

namespace te::batch {
namespace {

using kernels::Tier;

std::string tmp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("te_ckpt_test_") + name))
      .string();
}

struct TmpFile {
  explicit TmpFile(const char* name) : path(tmp_path(name)) {
    std::filesystem::remove(path);
  }
  ~TmpFile() { std::filesystem::remove(path); }
  std::string path;
};

struct TmpDir {
  explicit TmpDir(const char* name) : path(tmp_path(name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TmpDir() { std::filesystem::remove_all(path); }
  std::string path;
};

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

/// Kill-after-k / resume cycle on one backend; compares against the
/// uninterrupted run at every k.
template <Real T>
void run_kill_resume_cycle(Backend backend, Tier tier) {
  auto p = BatchProblem<T>::random(61, 10, 4, 4, 3);
  p.options.alpha = 1.0;

  SchedulerOptions base;
  base.chunk_tensors = 3;  // 4 chunks
  Scheduler<T> ref_sched(backend, base);
  const JobId ref_id = ref_sched.submit(p, tier);
  ref_sched.run();
  const auto& ref = ref_sched.result(ref_id).results;

  // One log file per backend: ctest runs the three cycle tests in
  // parallel processes, which must not share a path.
  const std::string name =
      "cycle_" + std::to_string(static_cast<int>(backend)) + ".tetc";
  for (int k = 0; k <= 4; ++k) {
    TmpFile ckpt(name.c_str());
    {
      SchedulerOptions opt = base;
      opt.checkpoint_path = ckpt.path;
      Scheduler<T> dying(backend, opt);
      const JobId id = dying.submit(p, tier);
      EXPECT_EQ(dying.restored_chunks(id), 0);
      EXPECT_EQ(dying.run(k), std::min(k, 4));
      // Scheduler destroyed here without finishing: the "kill".
    }
    SchedulerOptions opt = base;
    opt.checkpoint_path = ckpt.path;
    Scheduler<T> resumed(backend, opt);
    const JobId id = resumed.submit(p, tier);
    EXPECT_EQ(resumed.restored_chunks(id), std::min(k, 4));
    EXPECT_EQ(resumed.pending_chunks(), 4 - std::min(k, 4));
    resumed.run();
    expect_bitwise(ref, resumed.result(id).results, "resume");
  }
}

TEST(CheckpointResume, BitwiseIdenticalOnCpuSequential) {
  run_kill_resume_cycle<float>(Backend::kCpuSequential, Tier::kPrecomputed);
}

TEST(CheckpointResume, BitwiseIdenticalOnCpuParallel) {
  run_kill_resume_cycle<double>(Backend::kCpuParallel, Tier::kGeneral);
}

TEST(CheckpointResume, BitwiseIdenticalOnGpuSim) {
  run_kill_resume_cycle<float>(Backend::kGpuSim, Tier::kUnrolled);
}

TEST(CheckpointResume, MultipleJobsResumeIndependently) {
  auto p1 = BatchProblem<float>::random(62, 4, 3, 4, 3);
  auto p2 = BatchProblem<float>::random(63, 4, 3, 3, 6);
  TmpFile ckpt("multi.tetc");
  SchedulerOptions opt;
  opt.chunk_tensors = 2;  // 2 chunks per job
  opt.checkpoint_path = ckpt.path;
  {
    Scheduler<float> dying(Backend::kCpuSequential, opt);
    (void)dying.submit(p1, Tier::kPrecomputed);
    (void)dying.submit(p2, Tier::kGeneral);
    EXPECT_EQ(dying.run(3), 3);  // all of job 1, half of job 2
  }
  Scheduler<float> resumed(Backend::kCpuSequential, opt);
  const JobId j1 = resumed.submit(p1, Tier::kPrecomputed);
  const JobId j2 = resumed.submit(p2, Tier::kGeneral);
  EXPECT_EQ(resumed.restored_chunks(j1), 2);
  EXPECT_EQ(resumed.restored_chunks(j2), 1);
  resumed.run();
  expect_bitwise(solve_cpu_sequential(p1, Tier::kPrecomputed).results,
                 resumed.result(j1).results, "job 1");
  expect_bitwise(solve_cpu_sequential(p2, Tier::kGeneral).results,
                 resumed.result(j2).results, "job 2");
}

TEST(CheckpointResume, FingerprintMismatchIsRefused) {
  auto p = BatchProblem<float>::random(64, 4, 2, 4, 3);
  TmpFile ckpt("pin.tetc");
  SchedulerOptions opt;
  opt.chunk_tensors = 2;
  opt.checkpoint_path = ckpt.path;
  {
    Scheduler<float> s(Backend::kCpuSequential, opt);
    (void)s.submit(p, Tier::kPrecomputed);
    (void)s.run(1);
  }
  // Same shape, one perturbed tensor value: the log must not be replayed
  // onto a different problem.
  auto tweaked = p;
  tweaked.tensors[0].value(0) += 1e-6f;
  Scheduler<float> s(Backend::kCpuSequential, opt);
  EXPECT_THROW((void)s.submit(tweaked, Tier::kPrecomputed), InvalidArgument);
  // Same problem under a different tier is a different computation too.
  Scheduler<float> s2(Backend::kCpuSequential, opt);
  EXPECT_THROW((void)s2.submit(p, Tier::kGeneral), InvalidArgument);
  // The original problem still resumes fine.
  Scheduler<float> ok(Backend::kCpuSequential, opt);
  const JobId id = ok.submit(p, Tier::kPrecomputed);
  EXPECT_EQ(ok.restored_chunks(id), 1);
  ok.run();
  expect_bitwise(solve_cpu_sequential(p, Tier::kPrecomputed).results,
                 ok.result(id).results, "pinned resume");
}

TEST(CheckpointResume, ChangedChunkingIsRefused) {
  auto p = BatchProblem<float>::random(65, 4, 2, 4, 3);
  TmpFile ckpt("chunking.tetc");
  SchedulerOptions opt;
  opt.chunk_tensors = 2;
  opt.checkpoint_path = ckpt.path;
  {
    Scheduler<float> s(Backend::kCpuSequential, opt);
    (void)s.submit(p, Tier::kPrecomputed);
    (void)s.run(1);
  }
  opt.chunk_tensors = 1;  // restored chunk boundaries would not line up
  Scheduler<float> s(Backend::kCpuSequential, opt);
  EXPECT_THROW((void)s.submit(p, Tier::kPrecomputed), InvalidArgument);
}

TEST(CheckpointResume, TornTailIsTruncatedAndResumeOfResumeWorks) {
  auto p = BatchProblem<float>::random(66, 6, 3, 4, 3);
  TmpFile ckpt("torn.tetc");
  SchedulerOptions opt;
  opt.chunk_tensors = 2;  // 3 chunks
  opt.checkpoint_path = ckpt.path;
  {
    Scheduler<float> s(Backend::kCpuSequential, opt);
    (void)s.submit(p, Tier::kPrecomputed);
    (void)s.run(2);
  }
  // Simulate a crash mid-append: chop bytes off the log's tail so the last
  // chunk section is torn.
  const auto size = std::filesystem::file_size(ckpt.path);
  std::filesystem::resize_file(ckpt.path, size - 13);
  Scheduler<float> resumed(Backend::kCpuSequential, opt);
  const JobId id = resumed.submit(p, Tier::kPrecomputed);
  EXPECT_EQ(resumed.restored_chunks(id), 1);  // torn second chunk dropped
  resumed.run();
  expect_bitwise(solve_cpu_sequential(p, Tier::kPrecomputed).results,
                 resumed.result(id).results, "torn resume");
  // The resumed run appended over a truncated tail: the log is strictly
  // valid again (this is what a resume-of-a-resume replays).
  io::StreamReader strict(ckpt.path);
  int sections = 0;
  while (strict.next()) ++sections;
  EXPECT_EQ(sections, 1 + 3);  // manifest + one restored + two re-executed
}

TEST(CheckpointResume, CompletedRunRestoresEverythingWithoutExecuting) {
  auto p = BatchProblem<double>::random(67, 4, 3, 4, 3);
  TmpFile ckpt("done.tetc");
  SchedulerOptions opt;
  opt.chunk_tensors = 2;
  opt.checkpoint_path = ckpt.path;
  std::vector<sshopm::Result<double>> first;
  {
    Scheduler<double> s(Backend::kCpuSequential, opt);
    const JobId id = s.submit(p, Tier::kPrecomputed);
    s.run();
    first = s.result(id).results;
  }
  Scheduler<double> again(Backend::kCpuSequential, opt);
  const JobId id = again.submit(p, Tier::kPrecomputed);
  EXPECT_EQ(again.restored_chunks(id), 2);
  EXPECT_EQ(again.pending_chunks(), 0);
  EXPECT_EQ(again.run(), 0);  // nothing left to execute
  expect_bitwise(first, again.result(id).results, "full restore");
}

// Tier values are persisted in the job record (and hashed into the
// fingerprint), so logs written before a tier was retired or moved to the
// device must still name the same tiers: unrolled stays 4, and the
// device-only blocked tier stays 3.
TEST(CheckpointResume, JobRecordCarriesThePersistedTierValue) {
  auto p = BatchProblem<float>::random(68, 2, 2, 4, 3);
  const struct {
    Backend backend;
    Tier tier;
    int persisted;
  } cases[] = {{Backend::kCpuSequential, Tier::kUnrolled, 4},
               {Backend::kGpuSim, Tier::kBlocked, 3}};
  for (const auto& c : cases) {
    TmpFile ckpt("tier.tetc");
    SchedulerOptions opt;
    opt.checkpoint_path = ckpt.path;
    {
      Scheduler<float> s(c.backend, opt);
      (void)s.submit(p, c.tier);
      s.run();
    }
    const auto replay = io::load_checkpoint<float>(ckpt.path);
    ASSERT_EQ(replay.jobs.size(), 1u);
    EXPECT_EQ(replay.jobs[0].tier, c.persisted);
  }
}

// Value 5 was the retired blocked_par tier and stays reserved: a log whose
// job record journals tier 5 matches no resubmission, on any host tier, and
// is refused with the mismatch error instead of resuming silently.
TEST(CheckpointResume, RetiredTierValueInTheJobRecordIsRefused) {
  auto p = BatchProblem<float>::random(70, 4, 2, 4, 3);
  p.options.alpha = 1.0;
  SchedulerOptions opt;
  opt.chunk_tensors = 2;
  TmpFile ckpt("retired_tier.tetc");
  opt.checkpoint_path = ckpt.path;
  {
    io::CheckpointJob job;
    job.job = 0;
    job.fingerprint = io::problem_fingerprint<float>(
        p.order, p.dim, 5, p.options,
        std::span<const SymmetricTensor<float>>(p.tensors),
        std::span<const std::vector<float>>(p.starts));
    job.order = p.order;
    job.dim = p.dim;
    job.num_tensors = p.num_tensors();
    job.num_starts = p.num_starts();
    job.tier = 5;
    job.chunk_tensors = opt.chunk_tensors;
    io::Writer w(ckpt.path);
    io::add_checkpoint_job_section(w, job);
    w.flush();
  }
  for (const Tier tier : kernels::kHostTiers) {
    if (tier == Tier::kJit) continue;  // needs an admitted runtime kernel
    Scheduler<float> s(Backend::kCpuSequential, opt);
    try {
      (void)s.submit(p, tier);
      ADD_FAILURE() << "resumed a tier-5 log as " << kernels::tier_name(tier);
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.message()).find(
                    "does not match the resubmitted problem"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// TableCache disk spill: KernelTables warm-started from a .tetc file.

TEST(TableSpill, SecondSchedulerWarmStartsFromDisk) {
  TmpDir spill("spill_dir");
  auto p = BatchProblem<float>::random(68, 4, 2, 4, 3);
  SchedulerOptions opt;
  opt.chunk_tensors = 2;
  opt.table_spill_dir = spill.path;

  std::vector<sshopm::Result<float>> cold;
  {
    Scheduler<float> s(Backend::kCpuSequential, opt);
    const JobId id = s.submit(p, Tier::kPrecomputed);
    s.run();
    cold = s.result(id).results;
    EXPECT_EQ(s.cache_stats().disk_hits, 0);  // nothing spilled yet
  }
  // The cold run spilled its built tables.
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(spill.path) / "tables_m4_n3_float32.tetc"));

  Scheduler<float> warm(Backend::kCpuSequential, opt);
  const JobId id = warm.submit(p, Tier::kPrecomputed);
  warm.run();
  EXPECT_EQ(warm.cache_stats().disk_hits, 1);
  EXPECT_EQ(warm.cache_stats().misses, 1);  // miss in RAM, hit on disk
  // Disk-loaded tables must not perturb results by a single bit.
  expect_bitwise(cold, warm.result(id).results, "warm tables");
}

TEST(TableSpill, CorruptSpillFileFallsBackToBuilding) {
  TmpDir spill("spill_bad");
  {
    std::ofstream bad(
        (std::filesystem::path(spill.path) / "tables_m4_n3_float32.tetc")
            .string(),
        std::ios::binary);
    bad << "garbage, not a container";
  }
  auto p = BatchProblem<float>::random(69, 2, 2, 4, 3);
  SchedulerOptions opt;
  opt.table_spill_dir = spill.path;
  Scheduler<float> s(Backend::kCpuSequential, opt);
  const JobId id = s.submit(p, Tier::kPrecomputed);
  s.run();  // must not throw: corrupt spill = cold build
  EXPECT_EQ(s.cache_stats().disk_hits, 0);
  expect_bitwise(solve_cpu_sequential(p, Tier::kPrecomputed).results,
                 s.result(id).results, "fallback build");
}

TEST(TableSpill, OutOfRangeSpillTableFallsBackToBuilding) {
  // A CRC-valid spill file whose tables would make ttsv1_precomputed write
  // past its accumulator: one contribution's out_index equals dim. The
  // rehydrating KernelTables constructor must refuse it, so the cache
  // builds cold instead of solving with it.
  using Contribution = kernels::KernelTables<float>::Contribution;
  TmpDir spill("spill_range");
  const std::string file =
      (std::filesystem::path(spill.path) / "tables_m4_n3_float32.tetc")
          .string();
  const kernels::KernelTables<float> built(4, 3);
  io::save_kernel_tables(file, built);
  auto payload = io::find_section(file, io::SectionType::kKernelTables).payload;
  // Contributions are the payload's tail, one record each.
  const std::size_t first = payload.size() - built.contributions().size() *
                                                 sizeof(Contribution);
  const index_t bad = 3;  // == dim
  std::memcpy(payload.data() + first + offsetof(Contribution, out_index), &bad,
              sizeof(bad));
  {
    io::Writer w(file);
    w.add_section(io::SectionType::kKernelTables, io::kKernelTablesVersion,
                  payload);
    w.flush();
  }

  auto p = BatchProblem<float>::random(71, 2, 2, 4, 3);
  SchedulerOptions opt;
  opt.table_spill_dir = spill.path;
  Scheduler<float> s(Backend::kCpuSequential, opt);
  const JobId id = s.submit(p, Tier::kPrecomputed);
  s.run();
  EXPECT_EQ(s.cache_stats().disk_hits, 0);
  expect_bitwise(solve_cpu_sequential(p, Tier::kPrecomputed).results,
                 s.result(id).results, "out-of-range spill");
}

TEST(TableSpill, UnwritableSpillDirIsSilentlyIgnored) {
  auto p = BatchProblem<float>::random(70, 2, 2, 4, 3);
  SchedulerOptions opt;
  opt.table_spill_dir = tmp_path("does_not_exist_dir/nested");
  Scheduler<float> s(Backend::kCpuSequential, opt);
  const JobId id = s.submit(p, Tier::kPrecomputed);
  s.run();  // spill failures never fail a solve
  expect_bitwise(solve_cpu_sequential(p, Tier::kPrecomputed).results,
                 s.result(id).results, "unwritable spill");
}

// ---------------------------------------------------------------------------
// Multiple WALs in one directory (the te::serve per-shard layout): each
// scheduler owns its own log file, kill points differ per shard, one shard
// may have a torn tail, and replay order across shards must not matter.
// ---------------------------------------------------------------------------

TEST(MultiWal, TwoSchedulersInOneDirResumeIndependently) {
  TmpDir dir("multi_wal");
  auto p0 = BatchProblem<float>::random(75, 8, 3, 3, 4);
  auto p1 = BatchProblem<float>::random(76, 8, 3, 3, 5);
  SchedulerOptions base;
  base.chunk_tensors = 2;  // 4 chunks per job

  Scheduler<float> ref0(Backend::kCpuSequential, base);
  Scheduler<float> ref1(Backend::kCpuSequential, base);
  const JobId r0 = ref0.submit(p0, Tier::kGeneral);
  const JobId r1 = ref1.submit(p1, Tier::kGeneral);
  ref0.run();
  ref1.run();

  SchedulerOptions o0 = base, o1 = base;
  o0.checkpoint_path = dir.path + "/shard_0.tetc";
  o1.checkpoint_path = dir.path + "/shard_1.tetc";
  {
    Scheduler<float> s0(Backend::kCpuSequential, o0);
    Scheduler<float> s1(Backend::kCpuSequential, o1);
    s0.submit(p0, Tier::kGeneral);
    s1.submit(p1, Tier::kGeneral);
    s0.run(1);  // different kill points per shard
    s1.run(3);
    // Both schedulers die here; their logs share the directory but not
    // a single byte of state.
  }
  ASSERT_TRUE(std::filesystem::exists(o0.checkpoint_path));
  ASSERT_TRUE(std::filesystem::exists(o1.checkpoint_path));

  // Replay in the OPPOSITE construction order: shard WALs are independent,
  // so recovery order across shards is irrelevant.
  Scheduler<float> n1(Backend::kCpuSequential, o1);
  Scheduler<float> n0(Backend::kCpuSequential, o0);
  const JobId id1 = n1.submit(p1, Tier::kGeneral);
  const JobId id0 = n0.submit(p0, Tier::kGeneral);
  EXPECT_EQ(n0.restored_chunks(id0), 1);
  EXPECT_EQ(n1.restored_chunks(id1), 3);
  n0.run();
  n1.run();
  expect_bitwise(ref0.result(r0).results, n0.result(id0).results, "shard 0");
  expect_bitwise(ref1.result(r1).results, n1.result(id1).results, "shard 1");
}

TEST(MultiWal, TornTailOnOneShardDoesNotTouchTheOther) {
  TmpDir dir("multi_wal_torn");
  auto p0 = BatchProblem<float>::random(77, 6, 3, 3, 4);
  auto p1 = BatchProblem<float>::random(78, 6, 3, 3, 4);
  SchedulerOptions base;
  base.chunk_tensors = 2;  // 3 chunks per job
  SchedulerOptions o0 = base, o1 = base;
  o0.checkpoint_path = dir.path + "/shard_0.tetc";
  o1.checkpoint_path = dir.path + "/shard_1.tetc";
  {
    Scheduler<float> s0(Backend::kCpuSequential, o0);
    Scheduler<float> s1(Backend::kCpuSequential, o1);
    s0.submit(p0, Tier::kGeneral);
    s1.submit(p1, Tier::kGeneral);
    s0.run(2);
    s1.run(2);
  }
  // Shard 0 crashed mid-append: its second chunk record is torn. Shard 1's
  // file is untouched.
  const auto full = std::filesystem::file_size(o0.checkpoint_path);
  std::filesystem::resize_file(o0.checkpoint_path, full - 11);
  const auto intact_size = std::filesystem::file_size(o1.checkpoint_path);

  Scheduler<float> n0(Backend::kCpuSequential, o0);
  Scheduler<float> n1(Backend::kCpuSequential, o1);
  const JobId id0 = n0.submit(p0, Tier::kGeneral);
  const JobId id1 = n1.submit(p1, Tier::kGeneral);
  EXPECT_EQ(n0.restored_chunks(id0), 1);  // torn second chunk dropped
  EXPECT_EQ(n1.restored_chunks(id1), 2);  // fully intact
  EXPECT_EQ(std::filesystem::file_size(o1.checkpoint_path), intact_size);
  n0.run();
  n1.run();
  expect_bitwise(solve_cpu_sequential(p0, Tier::kGeneral).results,
                 n0.result(id0).results, "torn shard");
  expect_bitwise(solve_cpu_sequential(p1, Tier::kGeneral).results,
                 n1.result(id1).results, "intact shard");
}

}  // namespace
}  // namespace te::batch
