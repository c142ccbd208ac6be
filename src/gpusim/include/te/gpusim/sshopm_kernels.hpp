#pragma once
// Simulated-GPU SS-HOPM kernels, following the paper's mapping
// (Sections V-B through V-D):
//
//   * one thread block per tensor, one thread per starting vector;
//   * the tensor's packed unique values are loaded cooperatively into
//     shared memory, then every thread iterates SS-HOPM independently;
//   * unrolled tier: x and y live in registers (thread locals here), the
//     index/coefficient information is burned into the instruction stream
//     (the registry's unrolled function pointers);
//   * general tier: index representations and multinomial coefficients are
//     recomputed on the fly; x and y are runtime-indexed arrays, which on a
//     real Fermi part live in L1-backed *local memory* -- the model charges
//     those accesses at the local-memory cost;
//   * starting vectors are shared by all blocks (paper Section V-C); each
//     block has its own slice of the output arrays.
//
// The functional arithmetic is executed natively; the tally calls feed the
// instruction-issue timing model in exec.hpp. Per-thread convergence makes
// lanes of one warp finish after different iteration counts; the warp-max
// rule in exec.hpp then charges the warp for its slowest lane, exactly the
// divergence behaviour of lockstep hardware.

#include <span>

#include "te/gpusim/exec.hpp"
#include "te/kernels/blocked.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/kernels/flop_model.hpp"
#include "te/kernels/general.hpp"
#include "te/sshopm/sshopm.hpp"

namespace te::gpusim {

/// Upper bound on the tensor dimension supported by the device kernels
/// (register-file budget; the paper's application has n = 3).
inline constexpr int kMaxDim = 16;

/// Device-visible problem layout (all pointers are "global memory").
template <Real T>
struct DeviceBatchView {
  int order = 0;
  int dim = 0;
  offset_t num_unique = 0;   ///< packed values per tensor
  int num_tensors = 0;
  int num_starts = 0;
  const T* tensors = nullptr;   ///< [num_tensors x num_unique]
  const T* starts = nullptr;    ///< [num_starts x dim], shared by all blocks
  T* out_vectors = nullptr;     ///< [num_tensors x num_starts x dim]
  T* out_values = nullptr;      ///< [num_tensors x num_starts]
  /// Iterations performed, whatever the outcome. [num_tensors x num_starts]
  std::int32_t* out_iters = nullptr;
  /// Per-run outcome as a sshopm::FailureReason integer (0 = converged);
  /// optional so older callers keep working. [num_tensors x num_starts]
  std::int32_t* out_status = nullptr;
};

/// Per-iteration operation tallies for the two tiers (FMA-aware, unlike the
/// pure-flop model in te/kernels/flop_model.hpp). Memory-op components are
/// included so the general tier's local-memory traffic is priced.
struct GpuIterationCost {
  OpCounts per_iteration;  ///< one SS-HOPM iteration of one thread
  OpCounts per_setup;      ///< pre-loop work (start load + first ttsv0)
};

/// Build the per-iteration tally for the unrolled tier from the exact
/// contribution counts of the shape.
[[nodiscard]] GpuIterationCost unrolled_iteration_cost(int order, int dim);

/// ... and for the general (on-the-fly) tier.
[[nodiscard]] GpuIterationCost general_iteration_cost(int order, int dim);

/// ... and for the blocked tier (paper future work, realized): x/y in
/// registers like the unrolled tier, but index rows, coefficients and
/// values stream from *shared memory* tables instead of the instruction
/// stream -- compact code (no I-cache overflow), modest registers, at the
/// price of shared-memory traffic per term.
[[nodiscard]] GpuIterationCost blocked_iteration_cost(int order, int dim);

/// Shared-memory footprint of one block for a tier: the tensor values,
/// plus (blocked tier only) the shape tables every thread reads.
[[nodiscard]] std::int32_t sshopm_shared_bytes(int order, int dim,
                                               kernels::Tier tier,
                                               int scalar_bytes);

/// One simulated thread of the batched SS-HOPM kernel. `tier` must be
/// kUnrolled (function pointers from the registry), kGeneral (on-the-fly),
/// or kBlocked (shared-memory tables; pass `tables`). `tables`, when given,
/// stands in for the per-block shared-memory copy of the shape tables --
/// the cost model charges the corresponding shared-memory traffic.
template <Real T>
ThreadTask sshopm_device_thread(ThreadCtx& ctx, DeviceBatchView<T> view,
                                kernels::Tier tier, sshopm::Options opt,
                                GpuIterationCost cost,
                                const kernels::KernelTables<T>* tables =
                                    nullptr) {
  const int b = ctx.block_idx();
  const int v = ctx.thread_idx();
  const int n = view.dim;
  const offset_t u = view.num_unique;

  // --- Cooperative load of this block's tensor into shared memory. ---
  // Checked view: under a sanitized launch every element access below is
  // recorded against the barrier-epoch race rule (see mem_sanitizer.hpp).
  SharedArray<T> sa = ctx.shared_array<T>(0, static_cast<std::size_t>(u));
  {
    OpCounts load;
    for (offset_t i = v; i < u; i += ctx.block_dim()) {
      const T* src = view.tensors + static_cast<std::size_t>(b) *
                                        static_cast<std::size_t>(u) +
                     static_cast<std::size_t>(i);
      ctx.note_global(src, sizeof(T), AccessKind::kRead);
      sa[static_cast<std::size_t>(i)] = *src;
      load.gmem += 1;
      load.shmem += 1;
      load.iop += 1;
    }
    ctx.tally(load);
  }
  co_await ctx.sync();

  if (v >= view.num_starts) co_return;  // excess threads idle past the load

  // --- Per-thread SS-HOPM (paper Fig. 1), state in "registers". ---
  const kernels::UnrolledEntry<T>* unrolled = nullptr;
  if (tier == kernels::Tier::kUnrolled) {
    unrolled = kernels::find_unrolled<T>(view.order, view.dim);
    TE_REQUIRE(unrolled != nullptr, "shape not in the unrolled registry");
  } else if (tier == kernels::Tier::kBlocked) {
    TE_REQUIRE(tables != nullptr && tables->order() == view.order &&
                   tables->dim() == view.dim,
               "blocked tier needs matching KernelTables");
  } else {
    TE_REQUIRE(tier == kernels::Tier::kGeneral,
               "device kernels implement general, blocked and unrolled");
  }

  // The run's state is the thread's "registers": one sshopm::Result driven
  // by the shared detail::Run state machine, so a device lane stops and
  // classifies exactly like the CPU backends. Starting vectors are
  // pre-normalized by the host API; Run::start normalizes anyway so the
  // kernel is self-contained (cost is in per_setup). A degenerate lane
  // must not unwind the whole launch (it would take every other lane's
  // results with it), so outcomes travel through out_status.
  T x0[kMaxDim];
  T y[kMaxDim];
  for (int i = 0; i < n; ++i) {
    const T* src = view.starts + static_cast<std::size_t>(v) * n + i;
    ctx.note_global(src, sizeof(T), AccessKind::kRead);
    x0[i] = *src;
  }
  sshopm::Result<T> r;
  sshopm::detail::Run<T> run(r, opt.tolerance, nullptr);
  bool live = run.start({x0, static_cast<std::size_t>(n)});
  // r.x now holds the iterate and is never resized again.
  const std::span<const T> xs(r.x.data(), r.x.size());
  const std::span<T> ys(y, static_cast<std::size_t>(n));

  // The library ttsv kernels take `const T*`; read_all() records one
  // whole-extent read per call, the same granularity compute-sanitizer has
  // at opaque call boundaries.
  const auto eval0 = [&]() -> T {
    const T* sv = sa.read_all();
    if (unrolled) return unrolled->ttsv0(sv, xs.data());
    if (tables) return kernels::ttsv0_blocked_raw(sv, *tables, xs);
    return kernels::ttsv0_general_raw(view.order, n, sv, xs);
  };
  const auto eval1 = [&]() {
    const T* sv = sa.read_all();
    if (unrolled) {
      unrolled->ttsv1(sv, xs.data(), y);
    } else if (tables) {
      kernels::ttsv1_blocked_raw(sv, *tables, xs, ys);
    } else {
      kernels::ttsv1_general_raw(view.order, n, sv, xs, ys);
    }
  };

  const T alpha = static_cast<T>(opt.alpha);
  const T sign = opt.alpha >= 0 ? T(1) : T(-1);
  live = live && run.accept_first(eval0());
  ctx.tally(cost.per_setup);
  for (int it = 0; live && it < opt.max_iterations; ++it) {
    eval1();
    live = run.update(ys, alpha, sign) && run.accept(eval0());
    ctx.tally(cost.per_iteration);
  }
  run.finish();

  // --- Write results to global memory. ---
  OpCounts store;
  const std::size_t slot = static_cast<std::size_t>(b) * view.num_starts + v;
  for (int i = 0; i < n; ++i) {
    ctx.note_global(view.out_vectors + slot * n + i, sizeof(T),
                    AccessKind::kWrite);
    view.out_vectors[slot * n + i] = r.x[static_cast<std::size_t>(i)];
  }
  ctx.note_global(view.out_values + slot, sizeof(T), AccessKind::kWrite);
  view.out_values[slot] = r.lambda;
  store.gmem += n + 1;
  if (view.out_iters) {
    ctx.note_global(view.out_iters + slot, sizeof(std::int32_t),
                    AccessKind::kWrite);
    view.out_iters[slot] = r.iterations;
    store.gmem += 1;
  }
  if (view.out_status) {
    ctx.note_global(view.out_status + slot, sizeof(std::int32_t),
                    AccessKind::kWrite);
    view.out_status[slot] = static_cast<std::int32_t>(r.failure);
    store.gmem += 1;
  }
  ctx.tally(store);
  co_return;
}

/// Launch geometry + resource footprint for the batched kernel on a shape.
[[nodiscard]] LaunchConfig sshopm_launch_config(int order, int dim,
                                                int num_tensors,
                                                int num_starts,
                                                kernels::Tier tier);

}  // namespace te::gpusim
