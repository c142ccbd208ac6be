#pragma once
// Streaming batch scheduler (ROADMAP "sharding, batching, async, caching").
//
// The one-shot entry points in batch.hpp solve one problem per call: they
// rebuild KernelTables every time, transfer the whole problem across PCIe
// before any compute starts, and spin up per-call thread pools. A service
// that streams many batched eigenproblems -- the paper's Section V workload
// at fleet scale -- wants the opposite: jobs of heterogeneous shapes
// chunked into bounded sub-batches, shape-keyed precompute shared across
// jobs, transfers overlapped with compute, and one thread pool reused for
// everything. te::batch::Scheduler is that subsystem:
//
//   * submit() accepts jobs of any (order, dim) mix; each job is split into
//     contiguous sub-batches of at most `chunk_tensors` tensors (tensors
//     are the natural chunk axis -- every (tensor, start) pair is
//     independent, so any chunking reproduces the one-shot results
//     bitwise);
//   * KernelTables are fetched from a thread-safe (order, dim)-keyed LRU
//     TableCache shared by all chunks of all jobs, whichever table tier
//     they run (hit/miss/eviction counters exposed);
//   * the simulated-GPU backend runs chunks through solve_gpusim_span and
//     feeds their per-phase costs into a double-buffered StreamPipeline, so
//     modeled host<->device transfer overlaps modeled compute -- both the
//     serialized and the overlapped time are reported;
//   * the CPU-parallel backend drains the same chunk queue over a single
//     ThreadPool owned by (or lent to) the scheduler: each run() or
//     run_job() is one claimed parallel_for over every tensor of the
//     chunks it executes, not one pool barrier per chunk (one chunk per
//     dispatch while a checkpoint log is open, so every chunk is durable
//     before the next starts).
//
// Invariant the test suite enforces: for every tier and backend, the
// scheduler's results are bitwise-identical to the corresponding one-shot
// solve_* call, for every chunk size.

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "te/batch/batch.hpp"
#include "te/batch/table_cache.hpp"
#include "te/gpusim/stream.hpp"
#include "te/io/checkpoint.hpp"
#include "te/obs/obs.hpp"
#include "te/obs/span.hpp"

namespace te::batch {

/// Which execution engine drains the chunk queue.
enum class Backend {
  kCpuSequential,
  kCpuParallel,
  kGpuSim,
};

[[nodiscard]] constexpr std::string_view backend_name(Backend b) {
  switch (b) {
    case Backend::kCpuSequential:
      return "cpu-sequential";
    case Backend::kCpuParallel:
      return "cpu-parallel";
    case Backend::kGpuSim:
      return "gpusim";
  }
  return "?";
}

/// Staging-buffer depth of the modeled GPU copy/compute pipeline: classic
/// double buffering, chunk i's upload waits for chunk i - 2's kernel.
inline constexpr int kPipelineBuffers = 2;

/// Scheduler construction knobs.
struct SchedulerOptions {
  /// Upper bound on tensors per sub-batch. Small chunks pipeline better
  /// (more transfer/compute overlap) but pay more kernel-launch overhead.
  int chunk_tensors = 32;
  /// Capacity (entries) of the shared (order, dim) precompute cache.
  std::size_t cache_capacity = 8;
  /// Byte budget of the precompute cache -- the binding bound at large n,
  /// where one KernelTables entry can dwarf the whole paper-scale set.
  std::size_t cache_max_bytes = kDefaultTableCacheBytes;
  /// Worker count for the kCpuParallel backend's owned pool (ignored when
  /// an external pool is lent).
  int cpu_threads = 4;
  /// Device model for the kGpuSim backend.
  gpusim::DeviceSpec device = gpusim::DeviceSpec::tesla_c2050();
  /// Sanitizer knobs forwarded to every GPU chunk launch.
  GpuSolveOptions gpu;
  /// When non-empty: TETC checkpoint log. Every completed chunk is appended
  /// and flushed; on construction an existing log is replayed (torn tail
  /// tolerated and truncated), and submit() of a job already pinned in the
  /// log restores its completed chunks instead of re-queueing them. Result
  /// slots restore bitwise, so a killed-and-resumed run's result stream is
  /// identical to an uninterrupted one. Timing/platform-model fields
  /// (wall_seconds, gpu summary, pipeline) describe only work this process
  /// actually executed.
  std::string checkpoint_path;
  /// When non-empty: TableCache spill directory -- KernelTables are
  /// warm-started from disk and written back on cold builds.
  std::string table_spill_dir;
};

/// Handle to a submitted job.
using JobId = int;

#if TE_OBS_ENABLED
namespace detail {
/// Scheduler-layer metric handles, name-resolved once. Counters accumulate
/// across scheduler instances (they describe the process); gauges reflect
/// the most recent observation.
struct SchedulerMetrics {
  obs::Counter& jobs_submitted;
  obs::Counter& chunks_executed;
  obs::Gauge& queue_depth;
  obs::Histogram& chunk_seconds;   ///< wall time per executed chunk
  obs::Gauge& cache_hits;
  obs::Gauge& cache_misses;
  obs::Gauge& cache_evictions;
  obs::Gauge& cache_size;
  obs::Gauge& cache_disk_hits;
  obs::Gauge& cache_bytes_resident;
  obs::Gauge& pipe_serialized;
  obs::Gauge& pipe_overlapped;
  obs::Gauge& pipe_hidden;
  obs::Counter& ckpt_chunks_appended;
  obs::Counter& ckpt_chunks_restored;

  static SchedulerMetrics& get() {
    static SchedulerMetrics m{
        obs::global().counter("batch.scheduler.jobs_submitted"),
        obs::global().counter("batch.scheduler.chunks_executed"),
        obs::global().gauge("batch.scheduler.queue_depth"),
        obs::global().histogram("batch.scheduler.chunk.seconds"),
        obs::global().gauge("batch.table_cache.hits"),
        obs::global().gauge("batch.table_cache.misses"),
        obs::global().gauge("batch.table_cache.evictions"),
        obs::global().gauge("batch.table_cache.size"),
        obs::global().gauge("batch.table_cache.disk_hits"),
        obs::global().gauge("batch.table_cache.bytes_resident"),
        obs::global().gauge("batch.pipeline.serialized_seconds"),
        obs::global().gauge("batch.pipeline.overlapped_seconds"),
        obs::global().gauge("batch.pipeline.hidden_seconds"),
        obs::global().counter("io.checkpoint.chunks_appended"),
        obs::global().counter("io.checkpoint.chunks_restored"),
    };
    return m;
  }
};
}  // namespace detail
#endif  // TE_OBS_ENABLED

/// Modeled pipeline timing of one job (GPU backend; zeros on CPU backends).
struct PipelineReport {
  int chunks = 0;
  double serialized_seconds = 0;  ///< sum of per-chunk h2d + kernel + d2h
  double overlapped_seconds = 0;  ///< double-buffered makespan (<= serialized)
  double transfer_seconds = 0;    ///< PCIe busy time (both directions)
  double compute_seconds = 0;     ///< kernel busy time
  [[nodiscard]] double hidden_seconds() const {
    return serialized_seconds - overlapped_seconds;
  }
};

/// Streaming batch-execution engine. Not thread-safe per instance (submit
/// and run from one thread); distinct instances may run concurrently and
/// may share a ThreadPool and, via shared_ptr semantics, table lifetimes.
template <Real T>
class Scheduler {
 public:
  /// `external_pool`, when given, is used (not owned) by the kCpuParallel
  /// backend, letting several schedulers share one set of workers instead
  /// of oversubscribing the host; it must outlive the scheduler.
  /// `shared_cache`, when given, replaces the scheduler-owned TableCache so
  /// several shards share one table budget (te::serve passes one cache to
  /// every shard); its capacity/byte/spill configuration is the owner's
  /// business and the per-scheduler cache knobs are ignored.
  explicit Scheduler(Backend backend, SchedulerOptions opt = {},
                     ThreadPool* external_pool = nullptr,
                     std::shared_ptr<TableCache<T>> shared_cache = nullptr)
      : backend_(backend),
        opt_(opt),
        owns_cache_(shared_cache == nullptr),
        cache_(shared_cache != nullptr
                   ? std::move(shared_cache)
                   : std::make_shared<TableCache<T>>(opt.cache_capacity,
                                                     opt.cache_max_bytes)),
        external_pool_(external_pool) {
    TE_REQUIRE(opt_.chunk_tensors >= 1, "chunk size must be positive");
    TE_REQUIRE(opt_.cpu_threads >= 1, "cpu_threads must be positive");
    if (owns_cache_ && !opt_.table_spill_dir.empty()) {
      cache_->set_spill_dir(opt_.table_spill_dir);
    }
    if (!opt_.checkpoint_path.empty()) {
      // Replay an existing log, drop any torn tail, then reopen for append
      // so this process's chunks extend the same container.
      replay_ = io::load_checkpoint<T>(opt_.checkpoint_path);
      if (replay_.present) {
        io::truncate_torn_tail(opt_.checkpoint_path, replay_.valid_end);
      }
      ckpt_.emplace(opt_.checkpoint_path, io::OpenMode::kAppend);
    }
  }

  [[nodiscard]] Backend backend() const { return backend_; }
  [[nodiscard]] const SchedulerOptions& options() const { return opt_; }

  /// Enqueue a job: validated, chunked, not yet executed. The problem is
  /// moved into the scheduler and owned until the scheduler is destroyed.
  JobId submit(BatchProblem<T> problem, kernels::Tier tier) {
    validate(problem, tier);
    const JobId id = static_cast<JobId>(jobs_.size());
    jobs_.emplace_back();
    Job& job = jobs_.back();
    job.problem = std::move(problem);
    job.tier = tier;
    job.result.num_tensors = job.problem.num_tensors();
    job.result.num_starts = job.problem.num_starts();
    job.result.results.resize(
        static_cast<std::size_t>(job.problem.num_tensors()) *
        job.problem.num_starts());
    for (int begin = 0; begin < job.problem.num_tensors();
         begin += opt_.chunk_tensors) {
      const int end =
          std::min(begin + opt_.chunk_tensors, job.problem.num_tensors());
      queue_.push_back(Chunk{id, begin, end});
      ++job.chunks_total;
    }
    if (ckpt_) checkpoint_submit(id, job);
    TE_OBS_ONLY({
      auto& m = detail::SchedulerMetrics::get();
      m.jobs_submitted.inc();
      m.queue_depth.set(static_cast<double>(queue_.size()));
    });
    return id;
  }

  /// Execute pending chunks (FIFO across jobs), then finalize every job
  /// whose chunks have all completed -- in this run, a previous run, or a
  /// replayed checkpoint. `max_chunks` bounds this call (negative = drain
  /// everything); a bounded run leaves the rest queued, which is how the
  /// kill/resume tests stop a scheduler mid-job deterministically. Returns
  /// the number of chunks executed.
  int run(int max_chunks = -1) {
    TE_OBS_SPAN("batch.run");
    const int executed =
        drain(max_chunks, [](const Chunk&) { return true; });
    for (auto& job : jobs_) {
      if (!job.done && !job.cancelled && job.chunks_done == job.chunks_total) {
        finalize(job);
      }
    }
    TE_OBS_ONLY({
      auto& m = detail::SchedulerMetrics::get();
      const TableCacheStats cs = cache_->stats();
      m.cache_hits.set(static_cast<double>(cs.hits));
      m.cache_misses.set(static_cast<double>(cs.misses));
      m.cache_evictions.set(static_cast<double>(cs.evictions));
      m.cache_size.set(static_cast<double>(cache_->size()));
      m.cache_disk_hits.set(static_cast<double>(cs.disk_hits));
      m.cache_bytes_resident.set(static_cast<double>(cs.bytes_resident));
      const PipelineReport pr = report(pipeline_);
      m.pipe_serialized.set(pr.serialized_seconds);
      m.pipe_overlapped.set(pr.overlapped_seconds);
      m.pipe_hidden.set(pr.hidden_seconds());
    });
    return executed;
  }

  /// Number of chunks waiting for the next run().
  [[nodiscard]] int pending_chunks() const {
    return static_cast<int>(queue_.size());
  }

  /// Execute queued chunks of ONE job (in submit order within the job),
  /// leaving every other job's chunks queued. This is the fairness unit of
  /// te::serve: a deficit round-robin pump spends each tenant's quantum in
  /// run_job(id, 1) steps, so a flooding tenant's deep queue cannot starve
  /// a light tenant sharing the shard. Finalizes the job when its last
  /// chunk completes. Returns the number of chunks executed.
  int run_job(JobId id, int max_chunks = -1) {
    TE_OBS_SPAN("batch.run_job");
    (void)at(id);  // validate the handle
    Job& job = jobs_[static_cast<std::size_t>(id)];
    TE_REQUIRE(!job.cancelled, "job " << id << " was cancelled");
    const int executed =
        drain(max_chunks, [id](const Chunk& c) { return c.job == id; });
    if (!job.done && job.chunks_done == job.chunks_total) finalize(job);
    return executed;
  }

  /// Free a retired job's problem and result storage, keeping the job id
  /// occupied and the progress counters intact. The service layer's
  /// retention policy calls this for requests past its completed-request
  /// window so a long-running server does not hold every result ever
  /// produced; result() and problem() refuse a released job.
  void release_job(JobId id) {
    (void)at(id);
    Job& job = jobs_[static_cast<std::size_t>(id)];
    TE_REQUIRE(job.done || job.cancelled,
               "job " << id << " still has pending chunks; cannot release");
    job.released = true;
    job.problem = BatchProblem<T>{};
    job.result = BatchResult<T>{};
  }

  /// Occupy the next job id with an already-released placeholder. Used by
  /// te::serve shard restart: a request evicted by the retention policy no
  /// longer has a problem to resubmit, but its id slot must stay consumed
  /// so every later job keeps the id the shard WAL manifest pinned.
  JobId submit_released() {
    const JobId id = static_cast<JobId>(jobs_.size());
    jobs_.emplace_back();
    Job& job = jobs_.back();
    job.done = true;
    job.released = true;
    return id;
  }

  /// Drop a job's queued chunks and mark it cancelled. Chunks already
  /// executed stay in the checkpoint log (a restart that resubmits the job
  /// may still finish it), but result() refuses a cancelled job and the
  /// run() finalize sweep skips it. Cancelling a finished job is an error
  /// -- poll is_done() first. Returns the number of chunks dropped.
  int cancel_job(JobId id) {
    (void)at(id);
    Job& job = jobs_[static_cast<std::size_t>(id)];
    TE_REQUIRE(!job.done,
               "job " << id << " already finished; nothing to cancel");
    int dropped = 0;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->job == id) {
        it = queue_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    job.cancelled = true;
    TE_OBS_ONLY(detail::SchedulerMetrics::get().queue_depth.set(
        static_cast<double>(queue_.size())));
    return dropped;
  }

  /// Per-job progress, exposed for service-layer polling.
  [[nodiscard]] int chunks_total(JobId id) const { return at(id).chunks_total; }
  [[nodiscard]] int chunks_done(JobId id) const { return at(id).chunks_done; }
  [[nodiscard]] bool is_done(JobId id) const { return at(id).done; }
  [[nodiscard]] bool is_cancelled(JobId id) const { return at(id).cancelled; }

  /// True when the checkpoint log replayed at construction already pins a
  /// job with this id -- i.e. submitting under this id is a recovery
  /// resubmission, not new work. te::serve lets those bypass admission
  /// control so a restart can never be refused by its own backpressure.
  [[nodiscard]] bool is_replay_job(JobId id) const {
    return std::any_of(replay_.jobs.begin(), replay_.jobs.end(),
                       [&](const io::CheckpointJob& j) {
                         return j.job == static_cast<std::uint32_t>(id);
                       });
  }

  /// The id the next submit() will hand out.
  [[nodiscard]] JobId next_job_id() const {
    return static_cast<JobId>(jobs_.size());
  }

  /// Result of a finished job (run() must have drained its chunks).
  [[nodiscard]] const BatchResult<T>& result(JobId id) const {
    const Job& job = at(id);
    TE_REQUIRE(!job.cancelled, "job " << id << " was cancelled");
    TE_REQUIRE(!job.released, "job " << id << " was released");
    TE_REQUIRE(job.done, "job " << id << " has pending chunks; call run()");
    return job.result;
  }

  /// Pipeline timing of a finished job (all-zero on CPU backends).
  [[nodiscard]] PipelineReport job_pipeline(JobId id) const {
    const Job& job = at(id);
    TE_REQUIRE(job.done, "job " << id << " has pending chunks; call run()");
    return report(job.pipeline);
  }

  /// Aggregate pipeline timing across every executed chunk of every job.
  [[nodiscard]] PipelineReport pipeline() const { return report(pipeline_); }

  /// Counters of the shared precompute cache.
  [[nodiscard]] TableCacheStats cache_stats() const { return cache_->stats(); }

  /// The precompute cache itself (the instance shared across shards when a
  /// shared cache was lent at construction).
  [[nodiscard]] const std::shared_ptr<TableCache<T>>& cache() const {
    return cache_;
  }

  /// The submitted problem backing a job (eigenpair extraction needs the
  /// tensors alongside the results).
  [[nodiscard]] const BatchProblem<T>& problem(JobId id) const {
    const Job& job = at(id);
    TE_REQUIRE(!job.released, "job " << id << " was released");
    return job.problem;
  }

  /// Chunks of a job already satisfied from the checkpoint log (restored
  /// bitwise at submit(), never re-executed).
  [[nodiscard]] int restored_chunks(JobId id) const {
    return at(id).chunks_restored;
  }

  /// The pool driving kCpuParallel chunks (created lazily; the external
  /// pool when one was lent).
  [[nodiscard]] ThreadPool& pool() {
    if (external_pool_ != nullptr) return *external_pool_;
    if (!owned_pool_) owned_pool_.emplace(opt_.cpu_threads);
    return *owned_pool_;
  }

 private:
  struct Job {
    BatchProblem<T> problem;
    kernels::Tier tier = kernels::Tier::kGeneral;
    BatchResult<T> result;
    gpusim::StreamPipeline pipeline{kPipelineBuffers};
    double wall_seconds = 0;
    int chunks_done = 0;      ///< executed here + restored from checkpoint
    int chunks_total = 0;     ///< set at submit(); done when equal
    int chunks_restored = 0;  ///< subset of chunks_done replayed from disk
    bool gpu_merged = false;  ///< a GPU chunk has seeded result.gpu
    bool done = false;
    bool cancelled = false;  ///< queued chunks dropped; result() refuses
    bool released = false;   ///< problem/result storage freed (retention)
  };

  struct Chunk {
    JobId job;
    int begin;  ///< first tensor index (inclusive)
    int end;    ///< last tensor index (exclusive)
  };

  void validate(const BatchProblem<T>& p, kernels::Tier tier) const {
    TE_REQUIRE(p.num_tensors() > 0 && p.num_starts() > 0, "empty job");
    for (const auto& a : p.tensors) {
      TE_REQUIRE(a.order() == p.order && a.dim() == p.dim,
                 "tensor shape (" << a.order() << ", " << a.dim()
                                  << ") does not match job shape ("
                                  << p.order << ", " << p.dim << ")");
    }
    for (const auto& s : p.starts) {
      TE_REQUIRE(static_cast<int>(s.size()) == p.dim,
                 "start vector length " << s.size() << " != dim " << p.dim);
    }
    const bool gpu = backend_ == Backend::kGpuSim;
    TE_REQUIRE(
        gpu ? kernels::runs_on_device(tier) : kernels::runs_on_host(tier),
        "the " << backend_name(backend_) << " backend does not run tier '"
               << kernels::tier_name(tier) << "'");
    if (gpu) {
      TE_REQUIRE(p.dim <= gpusim::kMaxDim,
                 "dimension exceeds device kernel cap");
    }
    if (tier == kernels::Tier::kUnrolled) {
      TE_REQUIRE(kernels::find_unrolled<T>(p.order, p.dim) != nullptr,
                 "no unrolled instantiation for order " << p.order << ", dim "
                                                        << p.dim);
    }
    if (tier == kernels::Tier::kJit) {
      // Admission happens before submission (te::jit::acquire); the
      // scheduler only refuses jobs no admitted kernel exists for, so a
      // mid-run chunk can never hit the BoundKernels bind error.
      TE_REQUIRE(kernels::find_jit<T>(p.order, p.dim) != nullptr,
                 "no admitted JIT kernel for order "
                     << p.order << ", dim " << p.dim
                     << " (acquire via te::jit before submitting)");
    }
  }

  [[nodiscard]] const Job& at(JobId id) const {
    TE_REQUIRE(id >= 0 && id < static_cast<JobId>(jobs_.size()),
               "unknown job id " << id);
    return jobs_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] static PipelineReport report(
      const gpusim::StreamPipeline& p) {
    PipelineReport r;
    r.chunks = p.chunks();
    r.serialized_seconds = p.serialized_seconds();
    r.overlapped_seconds = p.overlapped_seconds();
    r.transfer_seconds = p.transfer_seconds();
    r.compute_seconds = p.compute_busy_seconds();
    return r;
  }

  /// Pop and execute the queued chunks `mine` selects, in queue order, at
  /// most `max_chunks` of them (negative = all). kCpuParallel runs them as
  /// one claimed dispatch; the other backends, and kCpuParallel while a
  /// checkpoint log is open, run one chunk per dispatch, so each chunk's
  /// WAL append lands before the next chunk starts. Returns the number of
  /// chunks executed.
  template <class Pred>
  int drain(int max_chunks, Pred mine) {
    const bool claimed = backend_ == Backend::kCpuParallel;
    int executed = 0;
    std::vector<Chunk> batch;
    for (;;) {
      const int budget = max_chunks < 0 ? std::numeric_limits<int>::max()
                                        : max_chunks - executed;
      const int take = claimed && !ckpt_ ? budget : std::min(budget, 1);
      batch.clear();
      for (auto it = queue_.begin();
           static_cast<int>(batch.size()) < take;) {
        it = std::find_if(it, queue_.end(), mine);
        if (it == queue_.end()) break;
        batch.push_back(*it);
        it = queue_.erase(it);
      }
      if (batch.empty()) break;
      if (claimed) {
        execute_claimed(batch);
      } else {
        execute(batch.front());
      }
      executed += static_cast<int>(batch.size());
      TE_OBS_ONLY(detail::SchedulerMetrics::get().queue_depth.set(
          static_cast<double>(queue_.size())));
    }
    return executed;
  }

  /// One chunk on the sequential or simulated-GPU backend.
  void execute(const Chunk& c) {
    TE_OBS_SPAN("chunk");
    Job& job = jobs_[static_cast<std::size_t>(c.job)];
    const BatchProblem<T>& p = job.problem;
    const auto tables = cache_->get(p.order, p.dim, job.tier);
    const std::span<sshopm::Result<T>> results(job.result.results);

    WallTimer timer;
    if (backend_ == Backend::kGpuSim) {
      const auto nv = static_cast<std::size_t>(p.num_starts());
      const auto count = static_cast<std::size_t>(c.end - c.begin);
      gpusim::ChunkCost cost;
      const auto launch = solve_gpusim_span<T>(
          p.order, p.dim,
          std::span<const SymmetricTensor<T>>(p.tensors).subspan(
              static_cast<std::size_t>(c.begin), count),
          std::span<const std::vector<T>>(p.starts), p.options, job.tier,
          opt_.device, opt_.gpu, tables.get(),
          results.subspan(static_cast<std::size_t>(c.begin) * nv, count * nv),
          &cost);
      TE_REQUIRE(launch.launchable,
                 "chunk does not fit on the device (occupancy limiter: "
                     << launch.occupancy.limiter << ")");
      job.result.gpu.merge(launch, !job.gpu_merged);
      job.gpu_merged = true;
      job.pipeline.record(cost);
      pipeline_.record(cost);
    } else {
      // The one-shot backends' own per-tensor step, so chunked execution
      // is bitwise identical to solve_cpu_* (table contents are a pure
      // function of (order, dim), so cache sharing cannot perturb it).
      for (int t = c.begin; t < c.end; ++t) {
        detail::solve_tensor(p, t, job.tier, tables.get(), results);
      }
    }
    complete(c, timer.seconds());
  }

  /// Several chunks, possibly of different jobs, shapes and tiers, as ONE
  /// pool dispatch over the flattened (chunk, tensor) index space: each
  /// index runs the same detail::solve_tensor as a per-chunk execution, so
  /// results are bitwise unchanged, while workers claim tensors until the
  /// whole dispatch is drained instead of meeting at a barrier per chunk.
  /// Tables are fetched once per chunk, so the cache hit/miss counts match
  /// per-chunk execution. The dispatch's wall time is apportioned to its
  /// chunks by tensor share; if it throws, no chunk of it is marked done.
  void execute_claimed(std::span<const Chunk> batch) {
    TE_OBS_SPAN("dispatch");
    struct Slice {
      Job* job;
      std::shared_ptr<const kernels::KernelTables<T>> tables;
      std::int64_t first;  ///< flat index of this chunk's first tensor
    };
    std::vector<Slice> slices;
    slices.reserve(batch.size());
    std::int64_t total = 0;
    for (const Chunk& c : batch) {
      Job& job = jobs_[static_cast<std::size_t>(c.job)];
      slices.push_back(
          {&job, cache_->get(job.problem.order, job.problem.dim, job.tier),
           total});
      total += c.end - c.begin;
    }
    WallTimer timer;
    pool().parallel_for(total, [&](std::int64_t i) {
      const auto k = static_cast<std::size_t>(
          std::upper_bound(slices.begin(), slices.end(), i,
                           [](std::int64_t v, const Slice& s) {
                             return v < s.first;
                           }) -
          slices.begin() - 1);
      const Slice& s = slices[k];
      detail::solve_tensor(s.job->problem,
                           batch[k].begin + static_cast<int>(i - s.first),
                           s.job->tier, s.tables.get(),
                           std::span<sshopm::Result<T>>(s.job->result.results));
    });
    const double seconds = timer.seconds();
    for (const Chunk& c : batch) {
      complete(c, seconds * static_cast<double>(c.end - c.begin) /
                      static_cast<double>(total));
    }
  }

  /// Per-chunk bookkeeping once a chunk's result slots are written.
  void complete(const Chunk& c, double chunk_seconds) {
    Job& job = jobs_[static_cast<std::size_t>(c.job)];
    job.wall_seconds += chunk_seconds;
    ++job.chunks_done;
    job.done = false;  // finalized (again) at the end of run()
    if (ckpt_) checkpoint_chunk(c, job);
    TE_OBS_ONLY({
      auto& m = detail::SchedulerMetrics::get();
      m.chunks_executed.inc();
      m.chunk_seconds.record(chunk_seconds);
    });
  }

  /// WAL append of one completed chunk: serialize the freshly written
  /// result slots and flush, making this chunk durable before the next one
  /// starts. This is the only io on the execute path; its cost is visible
  /// under the io.checkpoint.append span.
  void checkpoint_chunk(const Chunk& c, const Job& job) {
    TE_OBS_SPAN("io.checkpoint.append");
    const int nv = job.problem.num_starts();
    io::CheckpointChunk<T> rec;
    rec.job = static_cast<std::uint32_t>(c.job);
    rec.begin = c.begin;
    rec.end = c.end;
    const auto* base = job.result.results.data() +
                       static_cast<std::size_t>(c.begin) * nv;
    rec.results.assign(base,
                       base + static_cast<std::size_t>(c.end - c.begin) * nv);
    io::add_checkpoint_chunk_section(*ckpt_, rec);
    ckpt_->flush();
    TE_OBS_ONLY(detail::SchedulerMetrics::get().ckpt_chunks_appended.inc());
  }

  /// Pin a newly submitted job against the checkpoint log: a job already in
  /// the log must match it bitwise (fingerprint over tensors, starts,
  /// options, tier) and gets its completed chunks restored; an unknown job
  /// is appended to the manifest. Called from submit() after chunking.
  void checkpoint_submit(JobId id, Job& job) {
    const std::uint32_t fp = io::problem_fingerprint<T>(
        job.problem.order, job.problem.dim, static_cast<int>(job.tier),
        job.problem.options,
        std::span<const SymmetricTensor<T>>(job.problem.tensors),
        std::span<const std::vector<T>>(job.problem.starts));
    const auto known =
        std::find_if(replay_.jobs.begin(), replay_.jobs.end(),
                     [&](const io::CheckpointJob& j) {
                       return j.job == static_cast<std::uint32_t>(id);
                     });
    if (known == replay_.jobs.end()) {
      io::CheckpointJob cj;
      cj.job = static_cast<std::uint32_t>(id);
      cj.fingerprint = fp;
      cj.order = job.problem.order;
      cj.dim = job.problem.dim;
      cj.num_tensors = job.problem.num_tensors();
      cj.num_starts = job.problem.num_starts();
      cj.tier = static_cast<std::int32_t>(job.tier);
      cj.chunk_tensors = opt_.chunk_tensors;
      io::add_checkpoint_job_section(*ckpt_, cj);
      ckpt_->flush();
      return;
    }
    TE_REQUIRE(known->fingerprint == fp &&
                   known->num_tensors == job.problem.num_tensors() &&
                   known->num_starts == job.problem.num_starts() &&
                   known->tier == static_cast<std::int32_t>(job.tier) &&
                   known->chunk_tensors == opt_.chunk_tensors,
               "checkpoint '" << opt_.checkpoint_path << "' job " << id
                              << " does not match the resubmitted problem "
                                 "(inputs, options, tier and chunk size must "
                                 "be identical to resume)");
    const int nv = job.problem.num_starts();
    for (const auto& rec : replay_.chunks) {
      if (rec.job != static_cast<std::uint32_t>(id)) continue;
      const auto match = std::find_if(
          queue_.begin(), queue_.end(), [&](const Chunk& q) {
            return q.job == id && q.begin == rec.begin && q.end == rec.end;
          });
      if (match == queue_.end()) continue;  // duplicate record: first wins
      TE_REQUIRE(rec.results.size() ==
                     static_cast<std::size_t>(rec.end - rec.begin) *
                         static_cast<std::size_t>(nv),
                 "checkpoint chunk [" << rec.begin << ", " << rec.end
                                      << ") of job " << id
                                      << " has a corrupt slot count");
      std::copy(rec.results.begin(), rec.results.end(),
                job.result.results.begin() +
                    static_cast<std::ptrdiff_t>(rec.begin) * nv);
      queue_.erase(match);
      ++job.chunks_done;
      ++job.chunks_restored;
      TE_OBS_ONLY(
          detail::SchedulerMetrics::get().ckpt_chunks_restored.inc());
    }
  }

  void finalize(Job& job) {
    job.result.wall_seconds = job.wall_seconds;
    job.result.useful_flops = count_useful_flops(
        job.result.results, job.problem.order, job.problem.dim);
    if (backend_ == Backend::kGpuSim) {
      // Modeled time of a pipelined job is the overlapped makespan of its
      // chunks (transfer hidden behind compute); the serialized PCIe total
      // keeps the one-shot transfer_seconds semantics for comparison.
      job.result.modeled_seconds = job.pipeline.overlapped_seconds();
      job.result.transfer_seconds = job.pipeline.transfer_seconds();
    } else {
      job.result.modeled_seconds = job.result.wall_seconds;
    }
    job.done = true;
  }

  Backend backend_;
  SchedulerOptions opt_;
  bool owns_cache_;  ///< declared before cache_: reads shared_cache pre-move
  std::shared_ptr<TableCache<T>> cache_;
  ThreadPool* external_pool_;
  std::optional<ThreadPool> owned_pool_;
  std::deque<Job> jobs_;
  std::deque<Chunk> queue_;
  gpusim::StreamPipeline pipeline_{kPipelineBuffers};
  io::CheckpointReplay<T> replay_;   ///< log contents found at construction
  std::optional<io::Writer> ckpt_;  ///< open append handle when enabled
};

}  // namespace te::batch
