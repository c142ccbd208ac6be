#pragma once
// Batched tensor eigensolving: the computational problem of the paper's
// Section V. A batch is many same-shape symmetric tensors (voxels) times
// many shared starting vectors; every (tensor, start) pair runs SS-HOPM
// independently. Three backends execute a batch:
//
//   solve_cpu_sequential -- one host thread (the paper's "CPU - 1 core"),
//   solve_cpu_parallel   -- ThreadPool over tensors, mirroring the paper's
//                           `omp parallel for` (functionally correct at any
//                           thread count; wall-clock speedup obviously
//                           requires real cores),
//   solve_gpusim         -- the simulated GPU (paper's CUDA implementation).
//
// All backends produce bitwise-comparable eigenpair streams for the same
// tier (the parallel backend partitions over tensors only, and the GPU
// backend runs the identical per-thread arithmetic), which the integration
// tests exploit.

#include <cstdint>
#include <optional>
#include <vector>

#include "te/gpusim/memory.hpp"
#include "te/gpusim/sshopm_kernels.hpp"
#include "te/gpusim/stream.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/kernels/flop_model.hpp"
#include "te/parallel/thread_pool.hpp"
#include "te/sshopm/multi.hpp"
#include "te/sshopm/spectrum.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"
#include "te/util/sphere.hpp"
#include "te/util/timer.hpp"

namespace te::batch {

/// The batched problem: same-shape tensors, shared starting vectors.
template <Real T>
struct BatchProblem {
  int order = 0;
  int dim = 0;
  std::vector<SymmetricTensor<T>> tensors;
  std::vector<std::vector<T>> starts;  ///< each unit length, size dim
  sshopm::Options options;

  [[nodiscard]] int num_tensors() const {
    return static_cast<int>(tensors.size());
  }
  [[nodiscard]] int num_starts() const {
    return static_cast<int>(starts.size());
  }

  /// Synthetic batch: random symmetric tensors (unique values uniform in
  /// [-1, 1]) and the paper's random starting vectors. Deterministic in
  /// `seed`.
  [[nodiscard]] static BatchProblem random(std::uint64_t seed,
                                           int num_tensors, int num_starts,
                                           int order, int dim) {
    TE_REQUIRE(num_tensors >= 1 && num_starts >= 1,
               "batch needs at least one tensor and one start");
    TE_REQUIRE(order >= 3, "SS-HOPM batches need tensor order >= 3");
    TE_REQUIRE(dim >= 2, "batch tensors need dimension >= 2");
    CounterRng rng(seed);
    BatchProblem p;
    p.order = order;
    p.dim = dim;
    p.tensors.reserve(static_cast<std::size_t>(num_tensors));
    for (int t = 0; t < num_tensors; ++t) {
      p.tensors.push_back(
          random_symmetric_tensor<T>(rng, static_cast<std::uint64_t>(t),
                                     order, dim));
    }
    p.starts = random_sphere_batch<T>(rng, 1u << 20, num_starts, dim);
    return p;
  }
};

/// One backend run over a full batch.
template <Real T>
struct BatchResult {
  int num_tensors = 0;
  int num_starts = 0;
  /// Flat (tensor-major) results: entry t * num_starts + v.
  std::vector<sshopm::Result<T>> results;
  /// Measured host execution time. A scheduler job sums the wall time of
  /// its chunks; a kCpuParallel dispatch runs the chunks of several jobs
  /// at once, so each chunk is charged the dispatch's wall time times its
  /// share of the dispatch's tensors.
  double wall_seconds = 0;
  double modeled_seconds = 0;  ///< platform-model time (GPU backend only;
                               ///< equals wall_seconds on CPU backends)
  std::int64_t useful_flops = 0;  ///< symmetric-kernel flop count actually
                                  ///< executed (paper's GFLOPS convention)
  double transfer_seconds = 0;  ///< modeled host<->device PCIe time (GPU
                                ///< backends only; reported separately, as
                                ///< the paper's kernel times exclude it)
  gpusim::LaunchResult gpu;    ///< populated by the GPU backend

  [[nodiscard]] const sshopm::Result<T>& at(int tensor, int start) const {
    TE_REQUIRE(tensor >= 0 && tensor < num_tensors,
               "tensor index " << tensor << " out of range [0, " << num_tensors
                               << ")");
    TE_REQUIRE(start >= 0 && start < num_starts,
               "start index " << start << " out of range [0, " << num_starts
                              << ")");
    return results[static_cast<std::size_t>(tensor) * num_starts + start];
  }
  [[nodiscard]] double gflops_measured() const {
    return wall_seconds > 0 ? static_cast<double>(useful_flops) /
                                  wall_seconds / 1e9
                            : 0;
  }
  [[nodiscard]] double gflops_modeled() const {
    return modeled_seconds > 0 ? static_cast<double>(useful_flops) /
                                     modeled_seconds / 1e9
                               : 0;
  }
};

/// Useful-flop count of a finished result set under the paper's convention
/// (symmetric-kernel arithmetic only; one setup ttsv0 plus per-iteration
/// work per (tensor, start)).
template <Real T>
[[nodiscard]] std::int64_t count_useful_flops(
    const std::vector<sshopm::Result<T>>& results, int order, int dim) {
  const std::int64_t iter_flops =
      kernels::flops_sshopm_iteration(order, dim).flops();
  const std::int64_t setup_flops =
      kernels::flops_symmetric_ttsv0(order, dim).flops() + 3 * dim + 1;
  std::int64_t total = 0;
  for (const auto& r : results) {
    total += setup_flops + iter_flops * r.iterations;
  }
  return total;
}

namespace detail {
/// Every start of tensor t into its tensor-major slots of `results` -- the
/// one CPU per-tensor step behind the one-shot backends and the
/// scheduler's chunks, so chunked CPU execution is bitwise identical to
/// the one-shot call by construction.
template <Real T>
void solve_tensor(const BatchProblem<T>& p, int t, kernels::Tier tier,
                  const kernels::KernelTables<T>* tables,
                  std::span<sshopm::Result<T>> results) {
  const kernels::BoundKernels<T> k(p.tensors[static_cast<std::size_t>(t)],
                                   tier, tables);
  const auto nv = static_cast<std::size_t>(p.num_starts());
  sshopm::solve_starts(k, std::span<const std::vector<T>>(p.starts),
                       p.options,
                       results.subspan(static_cast<std::size_t>(t) * nv, nv));
}
}  // namespace detail

/// Sequential CPU backend (paper "CPU - 1 core"). Host tiers only
/// (kernels::kHostTiers); the device-only kBlocked is refused up front.
template <Real T>
[[nodiscard]] BatchResult<T> solve_cpu_sequential(const BatchProblem<T>& p,
                                                  kernels::Tier tier) {
  TE_REQUIRE(p.num_tensors() > 0 && p.num_starts() > 0, "empty batch");
  TE_REQUIRE(kernels::runs_on_host(tier),
             "tier '" << kernels::tier_name(tier)
                      << "' runs on the GPU backend only");
  BatchResult<T> out;
  out.num_tensors = p.num_tensors();
  out.num_starts = p.num_starts();
  out.results.resize(static_cast<std::size_t>(p.num_tensors()) *
                     p.num_starts());

  std::optional<kernels::KernelTables<T>> tables;
  if (kernels::uses_tables(tier)) tables.emplace(p.order, p.dim);
  WallTimer timer;
  for (int t = 0; t < p.num_tensors(); ++t) {
    detail::solve_tensor(p, t, tier, tables ? &*tables : nullptr,
                         std::span<sshopm::Result<T>>(out.results));
  }
  out.wall_seconds = timer.seconds();
  out.modeled_seconds = out.wall_seconds;
  out.useful_flops = count_useful_flops(out.results, p.order, p.dim);
  return out;
}

/// Parallel CPU backend: the tensor loop runs as one parallel_for over a
/// thread pool, the paper's OpenMP mapping with a dynamic schedule (each
/// worker claims the next tensor).
template <Real T>
[[nodiscard]] BatchResult<T> solve_cpu_parallel(const BatchProblem<T>& p,
                                                kernels::Tier tier,
                                                ThreadPool& pool) {
  TE_REQUIRE(p.num_tensors() > 0 && p.num_starts() > 0, "empty batch");
  TE_REQUIRE(kernels::runs_on_host(tier),
             "tier '" << kernels::tier_name(tier)
                      << "' runs on the GPU backend only");
  BatchResult<T> out;
  out.num_tensors = p.num_tensors();
  out.num_starts = p.num_starts();
  out.results.resize(static_cast<std::size_t>(p.num_tensors()) *
                     p.num_starts());

  std::optional<kernels::KernelTables<T>> tables;
  if (kernels::uses_tables(tier)) tables.emplace(p.order, p.dim);
  WallTimer timer;
  pool.parallel_for(p.num_tensors(), [&](std::int64_t t) {
    detail::solve_tensor(p, static_cast<int>(t), tier,
                         tables ? &*tables : nullptr,
                         std::span<sshopm::Result<T>>(out.results));
  });
  out.wall_seconds = timer.seconds();
  out.modeled_seconds = out.wall_seconds;
  out.useful_flops = count_useful_flops(out.results, p.order, p.dim);
  return out;
}

/// Instrumentation knobs for the simulated-GPU backends.
struct GpuSolveOptions {
  /// Run the launch under the shared-memory sanitizer; the report lands in
  /// BatchResult::gpu.sanitizer. Costs host time only.
  bool sanitize = false;
  /// With `sanitize`: throw te::SanitizerViolation at the first finding.
  bool sanitizer_fail_fast = false;
};

/// Lower-level simulated-GPU solve over a contiguous span of same-shape
/// tensors: one launch, results written tensor-major into `out` (size
/// tensors.size() * starts.size()). This is the single code path behind
/// both the one-shot solve_gpusim and the scheduler's pipelined chunks, so
/// chunked execution is bitwise-identical to the monolithic call by
/// construction (every block's arithmetic is independent of the grid size).
///
/// `tables` must match (order, dim) for kBlocked -- the scheduler shares
/// one table set across chunks and jobs -- and is ignored by other tiers;
/// pass nullptr to have kBlocked build its own. `timing`, when given,
/// receives the modeled per-phase costs (H2D, kernel, D2H) that feed the
/// copy/compute overlap model in te/gpusim/stream.hpp.
template <Real T>
[[nodiscard]] gpusim::LaunchResult solve_gpusim_span(
    int order, int dim, std::span<const SymmetricTensor<T>> tensors,
    std::span<const std::vector<T>> starts, const sshopm::Options& options,
    kernels::Tier tier, const gpusim::DeviceSpec& dev,
    const GpuSolveOptions& gpu_opt, const kernels::KernelTables<T>* tables,
    std::span<sshopm::Result<T>> out, gpusim::ChunkCost* timing = nullptr) {
  TE_REQUIRE(!tensors.empty() && !starts.empty(), "empty chunk");
  TE_REQUIRE(dim <= gpusim::kMaxDim, "dimension exceeds device kernel cap");
  TE_REQUIRE(kernels::runs_on_device(tier),
             "GPU backend implements the general, blocked and unrolled "
             "tiers");
  const int nt = static_cast<int>(tensors.size());
  const int nv = static_cast<int>(starts.size());
  const int n = dim;
  const offset_t u = tensors.front().num_unique();
  TE_REQUIRE(out.size() == static_cast<std::size_t>(nt) * nv,
             "result span size mismatch");

  std::optional<kernels::KernelTables<T>> own_tables;
  if (tier == kernels::Tier::kBlocked && tables == nullptr) {
    own_tables.emplace(order, n);
    tables = &*own_tables;
  }
  if (tier == kernels::Tier::kBlocked) {
    TE_REQUIRE(tables->order() == order && tables->dim() == n,
               "blocked tier needs matching KernelTables");
  }

  // Stage the inputs on the host, then copy to "device memory" through the
  // explicit transfer API (the cudaMemcpy analog; the ledger prices PCIe).
  std::vector<T> staged(static_cast<std::size_t>(nt) * u);
  for (int t = 0; t < nt; ++t) {
    const auto vals = tensors[static_cast<std::size_t>(t)].values();
    std::copy(vals.begin(), vals.end(),
              staged.begin() + static_cast<std::size_t>(t) * u);
  }
  std::vector<T> staged_starts(static_cast<std::size_t>(nv) * n);
  for (int v = 0; v < nv; ++v) {
    const auto& s = starts[static_cast<std::size_t>(v)];
    std::copy(s.begin(), s.end(),
              staged_starts.begin() + static_cast<std::size_t>(v) * n);
  }

  gpusim::TransferLedger ledger;
  gpusim::DeviceBuffer<T> d_tensors(ledger, staged.size());
  gpusim::DeviceBuffer<T> d_starts(ledger, staged_starts.size());
  gpusim::DeviceBuffer<T> d_out_vectors(
      ledger, static_cast<std::size_t>(nt) * nv * n);
  gpusim::DeviceBuffer<T> d_out_values(ledger,
                                       static_cast<std::size_t>(nt) * nv);
  gpusim::DeviceBuffer<std::int32_t> d_out_iters(
      ledger, static_cast<std::size_t>(nt) * nv);
  gpusim::DeviceBuffer<std::int32_t> d_out_status(
      ledger, static_cast<std::size_t>(nt) * nv);
  d_tensors.h2d(staged);
  d_starts.h2d(staged_starts);
  const double h2d_seconds =
      static_cast<double>(ledger.h2d_bytes()) / (dev.pcie_gbps * 1e9);

  gpusim::DeviceBatchView<T> view;
  view.order = order;
  view.dim = n;
  view.num_unique = u;
  view.num_tensors = nt;
  view.num_starts = nv;
  view.tensors = d_tensors.device_ptr();
  view.starts = d_starts.device_ptr();
  view.out_vectors = d_out_vectors.device_ptr();
  view.out_values = d_out_values.device_ptr();
  view.out_iters = d_out_iters.device_ptr();
  view.out_status = d_out_status.device_ptr();

  const gpusim::GpuIterationCost cost =
      tier == kernels::Tier::kUnrolled
          ? gpusim::unrolled_iteration_cost(order, n)
          : (tier == kernels::Tier::kBlocked
                 ? gpusim::blocked_iteration_cost(order, n)
                 : gpusim::general_iteration_cost(order, n));
  gpusim::LaunchConfig cfg =
      gpusim::sshopm_launch_config(order, n, nt, nv, tier);
  cfg.shared_bytes_per_block = gpusim::sshopm_shared_bytes(
      order, n, tier, static_cast<int>(sizeof(T)));
  cfg.sanitize = gpu_opt.sanitize;
  cfg.sanitizer_fail_fast = gpu_opt.sanitizer_fail_fast;

  auto launch_result = gpusim::launch(
      dev, cfg, [&](gpusim::ThreadCtx& ctx) {
        return gpusim::sshopm_device_thread<T>(
            ctx, view, tier, options, cost,
            tier == kernels::Tier::kBlocked ? tables : nullptr);
      });
  if (!launch_result.launchable) return launch_result;

  // Copy the results back (cudaMemcpyDeviceToHost analog).
  std::vector<T> out_vectors(d_out_vectors.size());
  std::vector<T> out_values(d_out_values.size());
  std::vector<std::int32_t> out_iters(d_out_iters.size());
  std::vector<std::int32_t> out_status(d_out_status.size());
  d_out_vectors.d2h(out_vectors);
  d_out_values.d2h(out_values);
  d_out_iters.d2h(std::span<std::int32_t>(out_iters.data(), out_iters.size()));
  d_out_status.d2h(
      std::span<std::int32_t>(out_status.data(), out_status.size()));

  for (std::size_t slot = 0; slot < out.size(); ++slot) {
    auto& r = out[slot];
    r.lambda = out_values[slot];
    r.x.assign(out_vectors.begin() + static_cast<std::ptrdiff_t>(slot * n),
               out_vectors.begin() + static_cast<std::ptrdiff_t>((slot + 1) * n));
    r.iterations = out_iters[slot];
    r.failure = static_cast<sshopm::FailureReason>(out_status[slot]);
    r.converged = r.failure == sshopm::FailureReason::kNone;
  }
  if (timing) {
    timing->h2d_seconds = h2d_seconds;
    timing->compute_seconds = launch_result.modeled_seconds;
    timing->d2h_seconds =
        static_cast<double>(ledger.d2h_bytes()) / (dev.pcie_gbps * 1e9);
  }
  return launch_result;
}

/// Simulated-GPU backend (paper Sections V-B..V-D). `tier` must be
/// kGeneral, kBlocked or kUnrolled. Functional results come from executing
/// the kernel; `modeled_seconds` comes from the device timing model.
template <Real T>
[[nodiscard]] BatchResult<T> solve_gpusim(
    const BatchProblem<T>& p, kernels::Tier tier,
    const gpusim::DeviceSpec& dev = gpusim::DeviceSpec::tesla_c2050(),
    const GpuSolveOptions& gpu_opt = {}) {
  TE_REQUIRE(p.num_tensors() > 0 && p.num_starts() > 0, "empty batch");

  BatchResult<T> out;
  out.num_tensors = p.num_tensors();
  out.num_starts = p.num_starts();
  out.results.resize(static_cast<std::size_t>(p.num_tensors()) *
                     p.num_starts());

  WallTimer timer;
  gpusim::ChunkCost timing;
  out.gpu = solve_gpusim_span<T>(
      p.order, p.dim,
      std::span<const SymmetricTensor<T>>(p.tensors.data(), p.tensors.size()),
      std::span<const std::vector<T>>(p.starts.data(), p.starts.size()),
      p.options, tier, dev, gpu_opt, nullptr,
      std::span<sshopm::Result<T>>(out.results.data(), out.results.size()),
      &timing);
  TE_REQUIRE(out.gpu.launchable,
             "kernel does not fit on the device (occupancy limiter: "
                 << out.gpu.occupancy.limiter << ")");
  out.wall_seconds = timer.seconds();
  out.modeled_seconds = out.gpu.modeled_seconds;
  out.useful_flops = count_useful_flops(out.results, p.order, p.dim);
  out.transfer_seconds = timing.h2d_seconds + timing.d2h_seconds;
  return out;
}

/// Post-process a finished batch into per-tensor eigenpair lists: the
/// application step after the accelerated solve (cluster the num_starts
/// runs of each tensor, classify, sort). Works on the output of any
/// backend, which is how the DW-MRI pipeline consumes the GPU results.
template <Real T>
[[nodiscard]] std::vector<std::vector<sshopm::Eigenpair<T>>>
extract_eigenpairs(const BatchProblem<T>& p, const BatchResult<T>& r,
                   const sshopm::MultiStartOptions& opt) {
  TE_REQUIRE(r.num_tensors == p.num_tensors() &&
                 r.num_starts == p.num_starts(),
             "result does not belong to this problem");
  std::vector<std::vector<sshopm::Eigenpair<T>>> out;
  out.reserve(static_cast<std::size_t>(r.num_tensors));
  for (int t = 0; t < r.num_tensors; ++t) {
    const auto* first =
        r.results.data() + static_cast<std::size_t>(t) * r.num_starts;
    out.push_back(sshopm::cluster_results(
        p.tensors[static_cast<std::size_t>(t)],
        std::span<const sshopm::Result<T>>(first,
                                           static_cast<std::size_t>(
                                               r.num_starts)),
        opt));
  }
  return out;
}

/// Multi-GPU backend (paper Section V-B: "for larger numbers of tensors,
/// this approach generalizes to a system with multiple GPUs"). Tensors are
/// split into contiguous chunks, one per device; devices run independently
/// (no inter-device communication is needed -- every (tensor, start) pair
/// is independent), so the modeled batch time is the slowest device's time.
/// The other launch figures (ops, compute, memory and simulator seconds)
/// and transfer_seconds are totals over the devices; with one device the
/// result equals solve_gpusim's.
template <Real T>
[[nodiscard]] BatchResult<T> solve_gpusim_multi(
    const BatchProblem<T>& p, kernels::Tier tier, int num_devices,
    const gpusim::DeviceSpec& dev = gpusim::DeviceSpec::tesla_c2050(),
    const GpuSolveOptions& gpu_opt = {}) {
  TE_REQUIRE(num_devices >= 1, "need at least one device");
  TE_REQUIRE(p.num_tensors() > 0 && p.num_starts() > 0, "empty batch");

  BatchResult<T> out;
  out.num_tensors = p.num_tensors();
  out.num_starts = p.num_starts();
  out.results.resize(static_cast<std::size_t>(p.num_tensors()) *
                     p.num_starts());

  WallTimer timer;
  const int chunk = (p.num_tensors() + num_devices - 1) / num_devices;
  const auto nv = static_cast<std::size_t>(p.num_starts());
  double slowest = 0;
  for (int d = 0; d < num_devices; ++d) {
    const int begin = d * chunk;
    const int end = std::min(begin + chunk, p.num_tensors());
    if (begin >= end) break;
    const auto first = static_cast<std::size_t>(begin);
    const auto count = static_cast<std::size_t>(end - begin);

    gpusim::ChunkCost timing;
    const auto launch = solve_gpusim_span<T>(
        p.order, p.dim,
        std::span<const SymmetricTensor<T>>(p.tensors).subspan(first, count),
        std::span<const std::vector<T>>(p.starts), p.options, tier, dev,
        gpu_opt, nullptr,
        std::span<sshopm::Result<T>>(out.results)
            .subspan(first * nv, count * nv),
        &timing);
    TE_REQUIRE(launch.launchable,
               "kernel does not fit on the device (occupancy limiter: "
                   << launch.occupancy.limiter << ")");
    out.gpu.merge(launch, d == 0);
    slowest = std::max(slowest, launch.modeled_seconds);
    out.transfer_seconds += timing.h2d_seconds + timing.d2h_seconds;
  }
  out.gpu.modeled_seconds = slowest;
  out.modeled_seconds = slowest;
  out.wall_seconds = timer.seconds();
  out.useful_flops = count_useful_flops(out.results, p.order, p.dim);
  return out;
}

}  // namespace te::batch
