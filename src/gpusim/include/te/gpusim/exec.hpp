#pragma once
// The simulated-GPU execution engine.
//
// launch() executes a grid of thread blocks functionally (the kernel's
// arithmetic runs at native host speed as a C++ coroutine per thread) and
// produces a modeled execution time from the operation tallies:
//
//   1. Each lane (thread) tallies its operation mix into an OpCounts.
//   2. A warp's cost is the *maximum* lane cost within it -- warps execute
//      in lockstep, so a warp whose lanes converge after different SS-HOPM
//      iteration counts pays for its slowest lane (branch-divergence and
//      early-exit effects fall out of this automatically).
//   3. An SM's busy time is the sum of its resident blocks' warp costs
//      (one warp instruction issues per SM per cycle on Fermi), inflated
//      when too few warps are resident to hide arithmetic latency:
//      eff = min(1, resident_warps / latency_hiding_warps).
//   4. Blocks are distributed round-robin over SMs; device compute time is
//      the maximum SM time. Global-memory traffic is checked against
//      bandwidth and the larger of compute/memory time wins (perfect
//      overlap assumption), plus a fixed launch overhead.
//
// Nothing here is calibrated against the paper's Table III; the model's
// constants are the C2050's published hardware parameters.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "te/gpusim/device_spec.hpp"
#include "te/gpusim/mem_sanitizer.hpp"
#include "te/gpusim/occupancy.hpp"
#include "te/gpusim/task.hpp"
#include "te/obs/obs.hpp"
#include "te/util/assert.hpp"
#include "te/util/op_counter.hpp"
#include "te/util/timer.hpp"

namespace te::gpusim {

#if TE_OBS_ENABLED
namespace detail {
/// Launch-layer metric handles, name-resolved once per process.
struct LaunchMetrics {
  obs::Counter& launches;
  obs::Counter& unlaunchable;
  obs::Histogram& modeled_seconds;
  obs::Histogram& sim_wall_seconds;
  obs::Gauge& occupancy_fraction;
  obs::Gauge& divergence_ratio;
};

inline LaunchMetrics& launch_metrics() {
  static LaunchMetrics m{
      obs::global().counter("gpusim.launches"),
      obs::global().counter("gpusim.launches.unlaunchable"),
      obs::global().histogram("gpusim.launch.modeled_seconds"),
      obs::global().histogram("gpusim.launch.sim_wall_seconds"),
      obs::global().gauge("gpusim.occupancy.fraction"),
      obs::global().gauge("gpusim.divergence_ratio"),
  };
  return m;
}
}  // namespace detail
#endif  // TE_OBS_ENABLED

/// Per-thread context handed to a simulated kernel.
class ThreadCtx {
 public:
  ThreadCtx(int thread_idx, int block_idx, int block_dim, int grid_dim,
            std::byte* shared, std::size_t shared_bytes,
            MemSanitizer* sanitizer = nullptr, AccessTracer* tracer = nullptr)
      : thread_idx_(thread_idx),
        block_idx_(block_idx),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        shared_(shared),
        shared_bytes_(shared_bytes),
        sanitizer_(sanitizer),
        tracer_(tracer) {}

  [[nodiscard]] int thread_idx() const { return thread_idx_; }
  [[nodiscard]] int block_idx() const { return block_idx_; }
  [[nodiscard]] int block_dim() const { return block_dim_; }
  [[nodiscard]] int grid_dim() const { return grid_dim_; }

  /// Raw shared-memory arena of this thread's block.
  [[nodiscard]] std::byte* shared_raw() const { return shared_; }
  [[nodiscard]] std::size_t shared_bytes() const { return shared_bytes_; }

  /// View (part of) shared memory as an array of U. `byte_offset` must be
  /// U-aligned. Unchecked legacy accessor: sanitized launches cannot see
  /// accesses through the raw pointer -- kernel code should use
  /// shared_array() instead.
  template <typename U>
  [[nodiscard]] U* shared_as(std::size_t byte_offset = 0) const {
    TE_ASSERT(byte_offset % alignof(U) == 0);
    TE_ASSERT(byte_offset <= shared_bytes_);
    return reinterpret_cast<U*>(shared_ + byte_offset);
  }

  /// Checked view of `count` elements of U starting at `byte_offset`. Under
  /// a sanitized launch every access through the view is recorded (and
  /// bounds/alignment violations become SanitizerReport findings instead of
  /// UB); otherwise the view degrades to raw pointer arithmetic.
  template <typename U>
  [[nodiscard]] SharedArray<U> shared_array(std::size_t byte_offset,
                                            std::size_t count) const {
    if (sanitizer_ != nullptr) {
      const CheckedExtent e = sanitizer_->check_view(
          thread_idx_, byte_offset, count, sizeof(U), alignof(U));
      return SharedArray<U>(reinterpret_cast<U*>(shared_ + e.byte_offset),
                            e.count, e.byte_offset, sanitizer_, thread_idx_,
                            tracer_);
    }
    TE_ASSERT(byte_offset % alignof(U) == 0);
    TE_ASSERT(byte_offset + count * sizeof(U) <= shared_bytes_);
    return SharedArray<U>(reinterpret_cast<U*>(shared_ + byte_offset), count,
                          byte_offset, nullptr, thread_idx_, tracer_);
  }

  /// The attached sanitizer, or nullptr on unsanitized launches.
  [[nodiscard]] MemSanitizer* sanitizer() const { return sanitizer_; }

  /// The attached access tracer, or nullptr on untraced launches.
  [[nodiscard]] AccessTracer* tracer() const { return tracer_; }

  /// Record a raw global-memory access (a load/store the kernel performs
  /// against device buffers rather than the shared arena). No-op unless the
  /// launch attached an AccessTracer; the timing model keeps using the
  /// OpCounts gmem tally, so tracing never perturbs modeled time.
  void note_global(const void* addr, std::size_t bytes, AccessKind kind) {
    if (tracer_ != nullptr) {
      tracer_->record(MemSpace::kGlobal, thread_idx_, kind,
                      reinterpret_cast<std::uint64_t>(addr),
                      static_cast<std::uint32_t>(bytes));
    }
  }

  /// Block-wide barrier: co_await ctx.sync().
  [[nodiscard]] Barrier sync() const { return {}; }

  /// Account executed operations for the timing model.
  void tally(const OpCounts& c) { ops_ += c; }

  [[nodiscard]] const OpCounts& ops() const { return ops_; }

 private:
  int thread_idx_;
  int block_idx_;
  int block_dim_;
  int grid_dim_;
  std::byte* shared_;
  std::size_t shared_bytes_;
  MemSanitizer* sanitizer_;
  AccessTracer* tracer_ = nullptr;
  OpCounts ops_;
};

/// Grid/block geometry plus the resource footprint used for occupancy.
struct LaunchConfig {
  int grid_dim = 1;
  int block_dim = 128;
  std::int32_t shared_bytes_per_block = 0;
  int registers_per_thread = 20;
  /// Static instruction count of the kernel's hot body (0 = small/looped).
  /// When it exceeds the device's instruction cache, issue throughput is
  /// derated by the overflow ratio (fetch-bound straight-line code).
  int static_instructions = 0;
  /// Instrument shared-memory accesses (see mem_sanitizer.hpp). Costs host
  /// time, never modeled time; off by default so benches pay nothing.
  bool sanitize = false;
  /// With `sanitize`: throw te::SanitizerViolation at the first finding
  /// instead of collecting a report (stops CI at the offending access).
  bool sanitizer_fail_fast = false;
  /// Name used in sanitizer diagnostics.
  std::string kernel_name;
  /// Record every shared/global access into this tracer (see
  /// access_trace.hpp); the te::analysis plan extractor attaches one here.
  /// Caller-owned, optional, and orthogonal to `sanitize`.
  AccessTracer* tracer = nullptr;
};

/// Everything launch() reports back.
struct LaunchResult {
  bool launchable = true;
  Occupancy occupancy;
  OpCounts total_ops;              ///< summed over all threads
  std::int64_t warp_issue_slots = 0;  ///< post-divergence warp cost total
  /// Lockstep waste: (sum over warps of max-lane cost) / (mean-lane cost).
  /// 1.0 = perfectly converged warps; the batched SS-HOPM kernel typically
  /// sits around 2-3 because lanes converge after different iteration
  /// counts and the warp pays for its slowest lane.
  double divergence_ratio = 1.0;
  double compute_seconds = 0;
  double memory_seconds = 0;
  double modeled_seconds = 0;      ///< max(compute, memory) + launch overhead
  double sim_wall_seconds = 0;     ///< host time spent simulating
  /// Shared-memory sanitizer findings (empty unless LaunchConfig::sanitize).
  SanitizerReport sanitizer;

  /// Fold launch `next` into this aggregate of launches run one after
  /// another: op counts, issue slots and every time add up, sanitizer
  /// findings concatenate, and `first` (the aggregate's first launch)
  /// seeds the occupancy. A caller whose launches ran side by side (one
  /// per device) overwrites modeled_seconds with the slowest one.
  void merge(const LaunchResult& next, bool first) {
    if (first) occupancy = next.occupancy;
    launchable = true;
    total_ops += next.total_ops;
    warp_issue_slots += next.warp_issue_slots;
    modeled_seconds += next.modeled_seconds;
    compute_seconds += next.compute_seconds;
    memory_seconds += next.memory_seconds;
    sim_wall_seconds += next.sim_wall_seconds;
    sanitizer.enabled |= next.sanitizer.enabled;
    if (sanitizer.kernel.empty()) sanitizer.kernel = next.sanitizer.kernel;
    sanitizer.accesses += next.sanitizer.accesses;
    sanitizer.suppressed += next.sanitizer.suppressed;
    sanitizer.findings.insert(sanitizer.findings.end(),
                              next.sanitizer.findings.begin(),
                              next.sanitizer.findings.end());
  }

  /// GFLOPS against a caller-supplied useful-flop count (the benches use
  /// the symmetric-kernel flop model, matching the paper's convention).
  [[nodiscard]] double achieved_gflops(double useful_flops) const {
    return modeled_seconds > 0 ? useful_flops / modeled_seconds / 1e9 : 0;
  }
};

/// Issue-slot cost of one lane's tally under a device's cost table.
[[nodiscard]] double lane_issue_cost(const DeviceSpec& dev, const OpCounts& c);

/// Aggregate per-block warp costs into a modeled device time.
/// `block_warp_slots[b]` is the summed warp cost of block b.
[[nodiscard]] LaunchResult aggregate_timing(
    const DeviceSpec& dev, const LaunchConfig& cfg, const Occupancy& occ,
    const std::vector<double>& block_warp_slots, const OpCounts& total_ops);

/// Execute a grid. `make_thread(ctx)` must return the ThreadTask coroutine
/// for one thread; `ctx` stays valid for the thread's lifetime.
///
/// Blocks run sequentially on the host (results are independent of block
/// order by construction -- blocks cannot communicate), and threads within
/// a block are interleaved at barrier granularity.
template <typename KernelFactory>
LaunchResult launch(const DeviceSpec& dev, const LaunchConfig& cfg,
                    KernelFactory&& make_thread) {
  TE_REQUIRE(cfg.grid_dim >= 1 && cfg.block_dim >= 1,
             "grid and block must be nonempty");
  WallTimer timer;

  KernelResources res;
  res.threads_per_block = cfg.block_dim;
  res.registers_per_thread = cfg.registers_per_thread;
  res.shared_bytes_per_block = cfg.shared_bytes_per_block;
  const Occupancy occ = compute_occupancy(dev, res);

  LaunchResult out;
  out.occupancy = occ;
  if (occ.blocks_per_sm == 0) {
    out.launchable = false;
    TE_OBS_ONLY(detail::launch_metrics().unlaunchable.inc());
    return out;
  }

  std::vector<double> block_warp_slots;
  block_warp_slots.reserve(static_cast<std::size_t>(cfg.grid_dim));
  OpCounts total;

  std::vector<std::byte> shared(
      static_cast<std::size_t>(std::max<std::int32_t>(
          cfg.shared_bytes_per_block, 1)));
  std::optional<MemSanitizer> sanitizer;
  if (cfg.sanitize) {
    sanitizer.emplace(cfg.kernel_name,
                      static_cast<std::size_t>(
                          std::max<std::int32_t>(cfg.shared_bytes_per_block, 0)),
                      cfg.sanitizer_fail_fast);
  }
  for (int b = 0; b < cfg.grid_dim; ++b) {
    // Fresh shared memory per block.
    std::fill(shared.begin(), shared.end(), std::byte{0});
    if (sanitizer) sanitizer->begin_block(b);
    if (cfg.tracer != nullptr) cfg.tracer->begin_block(b);

    std::vector<ThreadCtx> ctxs;
    ctxs.reserve(static_cast<std::size_t>(cfg.block_dim));
    for (int t = 0; t < cfg.block_dim; ++t) {
      ctxs.emplace_back(t, b, cfg.block_dim, cfg.grid_dim, shared.data(),
                        shared.size(), sanitizer ? &*sanitizer : nullptr,
                        cfg.tracer);
    }
    std::vector<ThreadTask> tasks;
    tasks.reserve(static_cast<std::size_t>(cfg.block_dim));
    for (int t = 0; t < cfg.block_dim; ++t) {
      tasks.push_back(make_thread(ctxs[static_cast<std::size_t>(t)]));
    }

    // Epoch loop: resume every live thread once per barrier epoch. The
    // sanitizer's race rule keys on this epoch counter: accesses in the
    // same epoch are unordered by any barrier.
    bool alive = true;
    while (alive) {
      alive = false;
      for (auto& task : tasks) {
        if (task.step()) alive = true;
      }
      if (sanitizer) sanitizer->advance_epoch();
      if (cfg.tracer != nullptr) cfg.tracer->advance_epoch();
    }

    // Warp cost = max lane cost within the warp (lockstep execution).
    double block_slots = 0;
    for (int w = 0; w * dev.warp_size < cfg.block_dim; ++w) {
      double warp_cost = 0;
      const int lo = w * dev.warp_size;
      const int hi = std::min(cfg.block_dim, lo + dev.warp_size);
      for (int t = lo; t < hi; ++t) {
        warp_cost = std::max(
            warp_cost, lane_issue_cost(dev, ctxs[static_cast<std::size_t>(t)].ops()));
        total += ctxs[static_cast<std::size_t>(t)].ops();
      }
      block_slots += warp_cost;
    }
    block_warp_slots.push_back(block_slots);
  }

  out = aggregate_timing(dev, cfg, occ, block_warp_slots, total);
  // Divergence: warp-max slots vs mean-lane slots over the whole grid.
  const double mean_lane_slots =
      lane_issue_cost(dev, total) /
      (static_cast<double>(cfg.grid_dim) * cfg.block_dim) *
      ((cfg.block_dim + dev.warp_size - 1) / dev.warp_size);
  double warp_slot_total = 0;
  for (double s : block_warp_slots) warp_slot_total += s;
  const double per_block_mean = mean_lane_slots;  // mean lane * warps/block
  if (per_block_mean > 0) {
    out.divergence_ratio =
        warp_slot_total / (per_block_mean * cfg.grid_dim);
  }
  if (sanitizer) out.sanitizer = sanitizer->take_report();
  out.sim_wall_seconds = timer.seconds();
  TE_OBS_ONLY({
    auto& m = detail::launch_metrics();
    m.launches.inc();
    m.modeled_seconds.record(out.modeled_seconds);
    m.sim_wall_seconds.record(out.sim_wall_seconds);
    m.occupancy_fraction.set(occ.fraction);
    m.divergence_ratio.set(out.divergence_ratio);
  });
  return out;
}

}  // namespace te::gpusim
