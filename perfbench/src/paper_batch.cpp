// paper_batch: the paper's application (Section V-E, Table III) at volume
// scale. One request processes a synthetic DW-MRI volume of kBatches
// Table III batches (1024 voxels x 128 starts each): fit every voxel's
// order-4 tensor from its ADC measurements, solve the batches as jobs of
// one streaming scheduler (cpu-parallel, one worker per hardware thread,
// unrolled tier, alpha = 0, float), extract eigenpairs, score the local
// maxima against the true fibers, and write one result container per
// batch. Requests run back to back (closed loop, 1 client).

#include <cstdio>

#include "common.hpp"
#include "te/batch/scheduler.hpp"
#include "te/dwmri/dataset.hpp"
#include "te/io/batch_codec.hpp"

namespace perfbench {
namespace {

using te::batch::BatchProblem;
using te::batch::BatchResult;
using te::kernels::Tier;

constexpr int kBatchVoxels = 1024;  // Table III batch size
constexpr int kBatches = 4;         // batches per volume (= per request)
constexpr int kStarts = 128;
constexpr int kGradients = 30;
constexpr double kAdcNoise = 0.02;  // ADC noise std-dev (1e-3 mm^2/s)
constexpr int kSampledPerBatch = 16;  // voxels re-solved by the checks
constexpr double kRecoveryFloor = 0.6;
constexpr float kResidualBound = 1e-2f;  // ||A x^3 - lambda x|| when converged

/// Volume inputs: ground truth, per-voxel ADC measurements, shared starts.
struct Inputs {
  te::dwmri::Dataset<float> truth;
  std::vector<std::vector<te::dwmri::AdcSample>> adc;
  std::vector<std::vector<float>> starts;
  te::sshopm::Options options;
};

Inputs make_inputs(std::uint64_t seed, int voxels) {
  Inputs in;
  te::dwmri::DatasetOptions dopt;
  dopt.num_voxels = voxels;
  dopt.two_fiber_fraction = 0.5;
  in.truth = te::dwmri::make_dataset<float>(seed, dopt);

  const auto gradients = te::fibonacci_hemisphere<double>(kGradients);
  const te::CounterRng noise(seed ^ 0x5eedadcULL);
  in.adc.resize(static_cast<std::size_t>(voxels));
  for (int v = 0; v < voxels; ++v) {
    const auto& tensor = in.truth.voxels[static_cast<std::size_t>(v)].tensor;
    auto& samples = in.adc[static_cast<std::size_t>(v)];
    for (int g = 0; g < kGradients; ++g) {
      const auto& gd = gradients[static_cast<std::size_t>(g)];
      te::dwmri::AdcSample s;
      s.gradient = {gd[0], gd[1], gd[2]};
      s.adc = te::dwmri::adc_quartic(tensor,
                                     std::span<const double>(gd.data(), 3)) +
              kAdcNoise * noise.normal(static_cast<std::uint64_t>(v),
                                       static_cast<std::uint64_t>(g));
      samples.push_back(s);
    }
  }
  in.starts = te::random_sphere_batch<float>(te::CounterRng(seed), 1u << 20,
                                             kStarts, 3);
  in.options.alpha = 0.0;
  in.options.tolerance = 1e-6;
  in.options.max_iterations = 200;
  return in;
}

[[nodiscard]] int num_voxels(const Inputs& in) {
  return static_cast<int>(in.adc.size());
}

std::vector<te::SymmetricTensor<float>> fit_voxels(const Inputs& in,
                                                   int first, int count) {
  std::vector<te::SymmetricTensor<float>> tensors;
  tensors.reserve(static_cast<std::size_t>(count));
  for (int v = first; v < first + count; ++v) {
    const auto& s = in.adc[static_cast<std::size_t>(v)];
    tensors.push_back(te::dwmri::fit_tensor<float>(
        4, std::span<const te::dwmri::AdcSample>(s.data(), s.size())));
  }
  return tensors;
}

BatchProblem<float> make_problem(const Inputs& in,
                                 std::vector<te::SymmetricTensor<float>> t) {
  BatchProblem<float> p;
  p.order = 4;
  p.dim = 3;
  p.tensors = std::move(t);
  p.starts = in.starts;
  p.options = in.options;
  return p;
}

/// Sampled voxels of one request, kept for the checks after the window.
struct Sample {
  std::vector<te::SymmetricTensor<float>> tensors;
  std::vector<te::sshopm::Result<float>> results;  ///< tensor-major
};

struct RequestOutcome {
  FiberScore recovery;
  std::int64_t useful_flops = 0;
  double result_bytes = 0;
};

/// One request over the whole volume: fit -> schedule -> per batch
/// extract, score, save.
RequestOutcome run_request(const Inputs& in, te::ThreadPool& pool, Tracer& tr,
                           const std::filesystem::path& dir, Sample* sample) {
  RequestOutcome out;
  const int voxels = num_voxels(in);
  std::vector<te::SymmetricTensor<float>> fitted;
  {
    Span s(tr, "dwmri.fit_tensor");
    fitted = fit_voxels(in, 0, voxels);
  }
  std::vector<BatchProblem<float>> problems;
  {
    Span s(tr, "batch.problem");
    for (int first = 0; first < voxels; first += kBatchVoxels) {
      const int n = std::min(kBatchVoxels, voxels - first);
      problems.push_back(make_problem(
          in, std::vector<te::SymmetricTensor<float>>(
                  fitted.begin() + first, fitted.begin() + first + n)));
    }
  }
  te::batch::SchedulerOptions so;
  so.cpu_threads = pool.num_threads();
  std::optional<te::batch::Scheduler<float>> sched;
  std::vector<te::batch::JobId> jobs;
  {
    Span s(tr, "batch.scheduler");
    sched.emplace(te::batch::Backend::kCpuParallel, so, &pool);
    for (auto& p : problems) {
      jobs.push_back(sched->submit(std::move(p), Tier::kUnrolled));
    }
    sched->run();
  }
  te::sshopm::MultiStartOptions mopt;
  mopt.inner = in.options;
  for (std::size_t b = 0; b < jobs.size(); ++b) {
    const BatchProblem<float>& prob = sched->problem(jobs[b]);
    const BatchResult<float>& res = sched->result(jobs[b]);
    const int first = static_cast<int>(b) * kBatchVoxels;
    out.useful_flops += res.useful_flops;
    std::vector<std::vector<te::sshopm::Eigenpair<float>>> lists;
    {
      Span s(tr, "batch.extract_eigenpairs");
      lists = te::batch::extract_eigenpairs(prob, res, mopt);
    }
    {
      Span s(tr, "dwmri.score_recovery");
      out.recovery += score_local_maxima(
          lists, std::span(in.truth.voxels)
                     .subspan(static_cast<std::size_t>(first),
                              static_cast<std::size_t>(prob.num_tensors())));
    }
    const auto path = dir / ("paper_batch_" + std::to_string(b) + ".tetc");
    {
      Span s(tr, "io.save_batch_result");
      te::io::save_batch_result(path.string(), res);
    }
    out.result_bytes += static_cast<double>(std::filesystem::file_size(path));
    if (sample != nullptr) {
      Span s(tr, "bench.sample");
      const int stride = std::max(1, prob.num_tensors() / kSampledPerBatch);
      for (int v = static_cast<int>(b) % stride; v < prob.num_tensors();
           v += stride) {
        sample->tensors.push_back(prob.tensors[static_cast<std::size_t>(v)]);
        const auto* base = res.results.data() +
                           static_cast<std::size_t>(v) * prob.num_starts();
        sample->results.insert(sample->results.end(), base,
                               base + prob.num_starts());
      }
    }
  }
  return out;
}

/// Checks of the sampled voxels: bitwise equal to the one-shot sequential
/// solve (the scheduler invariant), converged runs within the residual
/// bound. Returns the number of failing voxels.
std::int64_t check_samples(const Inputs& in, const std::vector<Sample>& samples,
                           Report& r) {
  std::int64_t failed = 0;
  for (const auto& s : samples) {
    const auto ref = te::batch::solve_cpu_sequential(
        make_problem(in, s.tensors), Tier::kUnrolled);
    for (std::size_t v = 0; v < s.tensors.size(); ++v) {
      const te::kernels::BoundKernels<float> k(s.tensors[v], Tier::kUnrolled);
      bool ok = true;
      for (int j = 0; j < kStarts; ++j) {
        const std::size_t slot = v * kStarts + static_cast<std::size_t>(j);
        const auto& got = s.results[slot];
        if (!same_bits(got, ref.results[slot])) ok = false;
        if (got.converged &&
            te::sshopm::eigen_residual(
                k, got.lambda,
                std::span<const float>(got.x.data(), got.x.size())) >
                kResidualBound) {
          ok = false;
        }
      }
      if (!ok) ++failed;
    }
  }
  if (failed > 0) {
    r.fail("paper_batch: " + std::to_string(failed) +
           " sampled voxels differ from the one-shot solve or exceed the "
           "residual bound");
  }
  return failed;
}

struct Pass {
  std::vector<double> latency_ms;
  std::vector<Sample> samples;
  double window_s = 0;
  double start = 0;  ///< tracer clock
  double end = 0;
  RequestOutcome first;  ///< every request repeats the same volume
  std::int64_t useful_flops = 0;
  double result_bytes = 0;
};

Pass run_pass(const Inputs& in, te::ThreadPool& pool, Tracer& tr,
              const std::filesystem::path& dir, double seconds) {
  Pass pass;
  pass.start = tr.now();
  const auto t0 = Clock::now();
  for (int i = 0; seconds_between(t0, Clock::now()) < seconds; ++i) {
    Sample sample;
    const auto q0 = Clock::now();
    RequestOutcome o;
    {
      Span s(tr, "request", i);
      o = run_request(in, pool, tr, dir, &sample);
    }
    pass.latency_ms.push_back(seconds_between(q0, Clock::now()) * 1e3);
    pass.samples.push_back(std::move(sample));
    pass.useful_flops += o.useful_flops;
    pass.result_bytes += o.result_bytes;
    if (i == 0) pass.first = o;
  }
  pass.window_s = seconds_between(t0, Clock::now());
  pass.end = tr.now();
  return pass;
}

/// Single-thread baseline: one fixed batch solved at 1 worker and at one
/// worker per hardware thread (median of three each).
void parallel_baseline(const Inputs& in, int threads, Report& r) {
  const BatchProblem<float> p =
      make_problem(in, fit_voxels(in, 0, kBatchVoxels));
  auto solve_seconds = [&](int workers) {
    te::ThreadPool pool(workers);
    std::vector<double> t;
    for (int rep = 0; rep < 3; ++rep) {
      te::batch::SchedulerOptions so;
      so.cpu_threads = workers;
      te::batch::Scheduler<float> sched(te::batch::Backend::kCpuParallel, so,
                                        &pool);
      const auto t0 = Clock::now();
      (void)sched.submit(p, Tier::kUnrolled);
      sched.run();
      t.push_back(seconds_between(t0, Clock::now()));
    }
    return median(t);
  };
  const double t1 = solve_seconds(1);
  const double tn = solve_seconds(threads);
  r.set("parallel.speedup", t1 / tn, "x");
  r.set("parallel.efficiency", t1 / tn / threads, "fraction");
  std::printf("parallel baseline: 1 thread %.4f s, %d threads %.4f s\n", t1,
              threads, tn);
}

DeterminismCounts determinism_unit(std::uint64_t seed,
                                   const std::filesystem::path& dir,
                                   te::ThreadPool& pool) {
  const Inputs in = make_inputs(seed, kBatchVoxels / 4);
  Tracer off(false);
  const ObsCounts before = ObsCounts::now();
  const auto o = run_request(in, pool, off, dir, nullptr);
  const ObsCounts d = ObsCounts::now() - before;
  DeterminismCounts c;
  c.solves = d.solves;
  c.iterations_mean =
      d.solves > 0 ? d.iterations / static_cast<double>(d.solves) : 0;
  c.ttsv_calls = d.ttsv_calls;
  c.fiber_recovery = o.recovery.fraction();
  c.input_hash = hash_tensors(fit_voxels(in, 0, 16));
  return c;
}

}  // namespace

Report run_paper_batch(const RunConfig& cfg) {
  Report r;
  std::optional<Inputs> in;
  std::optional<te::ThreadPool> pool;
  Tracer off(false);
  // Set-up: the volume, the worker pool, and one warm-up request on a
  // single batch so lazy allocations finish before timing.
  const int setup_reps = cfg.trace ? 1 : kSetupReps;
  const double setup_s = median_setup_seconds(setup_reps, [&] {
    pool.reset();
    in.emplace(make_inputs(cfg.seed, kBatches * kBatchVoxels));
    pool.emplace(cfg.threads);
    (void)run_request(make_inputs(cfg.seed, kBatchVoxels), *pool, off,
                      cfg.out_dir, nullptr);
  });

  Pass pass;
  if (!cfg.trace) {
    pass = run_pass(*in, *pool, off, cfg.out_dir, cfg.seconds);
    r.set("setup_s", setup_s, "s");
  } else {
    const Pass ref = run_pass(*in, *pool, off, cfg.out_dir, cfg.seconds / 2);
    Tracer tr(true);
    const ObsCounts before = ObsCounts::now();
    pass = run_pass(*in, *pool, tr, cfg.out_dir, cfg.seconds);
    const ObsCounts d = ObsCounts::now() - before;
    const double n = static_cast<double>(pass.latency_ms.size());
    const double solve = tr.total("batch.scheduler", pass.start, pass.end);
    const double write = tr.total("io.save_batch_result", pass.start, pass.end);
    set_solver_metrics(r, d);
    r.set("dwmri.fit_s", tr.total("dwmri.fit_tensor", pass.start, pass.end) / n,
          "s");
    r.set("sshopm.extract_s",
          tr.total("batch.extract_eigenpairs", pass.start, pass.end) / n, "s");
    r.set("batch.solve_s", solve / n, "s");
    r.set("batch.chunks", static_cast<double>(d.chunks) / n, "count");
    r.set("kernels.useful_gflops",
          static_cast<double>(pass.useful_flops) / solve / 1e9, "GFLOP/s");
    r.set("io.result_write_s", write / n, "s");
    r.set("io.result_write_mb_s", pass.result_bytes / write / 1e6, "MB/s");
    r.set("bench.trace_overhead", mean(pass.latency_ms) / mean(ref.latency_ms),
          "x");
    r.set("bench.span_coverage", tr.coverage(pass.start, pass.end),
          "fraction");
    tr.write_json(cfg.out_dir / ("trace-paper_batch-" +
                                 std::to_string(cfg.seed) + ".json"));

    parallel_baseline(*in, cfg.threads, r);
    report_kernel_replay(r, Tier::kUnrolled, fit_voxels(*in, 0, 64),
                         in->starts);
    determinism_self_test(r, cfg.seed, [&](std::uint64_t s) {
      return determinism_unit(s, cfg.out_dir, *pool);
    });
  }

  const double n = static_cast<double>(pass.latency_ms.size());
  const double voxels = num_voxels(*in);
  r.attempted = static_cast<std::int64_t>(n * voxels);
  r.failed = check_samples(*in, pass.samples, r);
  const double recovery = pass.first.recovery.fraction();
  if (recovery < kRecoveryFloor) {
    r.fail("paper_batch: fiber recovery " + std::to_string(recovery) +
           " below the floor " + std::to_string(kRecoveryFloor));
  }
  if (!cfg.trace) {
    r.set("voxels_per_s", voxels / (median(pass.latency_ms) / 1e3),
          "voxels/s");
    r.set("fiber_recovery", recovery, "fraction");
    r.set("req_per_s", n / pass.window_s, "1/s");
    set_latency_metrics(r, pass.latency_ms, pass.latency_ms);
  }
  return r;
}

}  // namespace perfbench
