#pragma once
// Lane-blocked SS-HOPM: the paper's thread-per-vector batch (Section V-B)
// on CPU SIMD lanes. solve_multi() runs W starting vectors per block in
// lockstep through the multi-vector kernels: every iteration issues ONE
// ttsv1 and ONE ttsv0 over the whole block, so the index-class walk --
// the dominant cost of the general/precomputed tiers -- is paid once per
// block instead of once per vector.
//
// Lanes retire *independently*: a lane that converges, degenerates or goes
// non-finite freezes (its result is captured immediately, its batch row is
// no longer updated) while the surviving lanes keep iterating. Retired
// lanes still ride along in the kernel calls -- that wasted work is what
// the sshopm.multi.lane_occupancy gauge measures -- but since every kernel
// operation is lane-wise, a frozen lane's (possibly NaN) row can never
// contaminate a live lane.
//
// Semantics contract (the differential tests assert this): each lane is
// one detail::Run, the state machine solve() drives, so normalization,
// FailureReason classification and iteration counts are solve()'s by
// construction (lanes keep no lambda trace; only solve() hands one out). The lane iterate lives contiguously in
// Result::x and every solver-level step runs on that span, so the only
// value drift the scalar path can see comes from the kernels' vector
// routes themselves (FMA contraction inside the vectorized class walk,
// DESIGN.md section 11); the per-lane fallback routes are bitwise.

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "te/kernels/dispatch.hpp"
#include "te/obs/obs.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/util/op_counter.hpp"

namespace te::sshopm {

#if TE_OBS_ENABLED
namespace detail {
/// Lane-blocking instrumentation, name-resolved once.
struct MultiSolveMetrics {
  obs::Counter& blocks;
  obs::Counter& lane_iterations;         ///< iterations by live lanes
  obs::Counter& lane_iterations_wasted;  ///< retired lanes riding along
  obs::Gauge& width;
  obs::Gauge& occupancy;  ///< live fraction of lane-iterations, last call

  static MultiSolveMetrics& get() {
    static MultiSolveMetrics m{
        obs::global().counter("sshopm.multi.blocks"),
        obs::global().counter("sshopm.multi.lane_iterations"),
        obs::global().counter("sshopm.multi.lane_iterations_wasted"),
        obs::global().gauge("sshopm.multi.width"),
        obs::global().gauge("sshopm.multi.lane_occupancy"),
    };
    return m;
  }
};
}  // namespace detail
#endif  // TE_OBS_ENABLED

/// SS-HOPM over all `starts` in blocks of k.width() lanes. Returns one
/// Result per start, in order, with the same classification semantics as
/// calling solve() per start (see the contract above). OpCounts tallies
/// the work actually executed, which includes retired lanes that ride
/// along inside a partially-live block.
template <Real T>
[[nodiscard]] std::vector<Result<T>> solve_multi(
    const kernels::BoundKernels<T>& k, std::span<const std::vector<T>> starts,
    const Options& opt, OpCounts* ops = nullptr) {
  const int n = k.tensor().dim();
  const int width = k.width();
  TE_REQUIRE(opt.max_iterations >= 1, "max_iterations must be positive");
  for (const auto& x0 : starts) {
    TE_REQUIRE(static_cast<int>(x0.size()) == n,
               "start vector length mismatch");
  }

  std::vector<Result<T>> results(starts.size());
  const T alpha = static_cast<T>(opt.alpha);
  const T sign = opt.alpha >= 0 ? T(1) : T(-1);

  // The SoA batches are kernel I/O only: each lane's iterate lives in its
  // Result::x (exactly like solve()), and y's lane is gathered into ybuf
  // before the update.
  kernels::VectorBatch<T> x(n, width);
  kernels::VectorBatch<T> y(n, width);
  std::vector<T> ybuf(static_cast<std::size_t>(n));
  std::vector<T> out0(static_cast<std::size_t>(width));
  std::int64_t live_lane_iters = 0;
  std::int64_t wasted_lane_iters = 0;
  std::int64_t blocks = 0;

  for (std::size_t base = 0; base < starts.size();
       base += static_cast<std::size_t>(width)) {
    const int lanes = static_cast<int>(
        std::min(static_cast<std::size_t>(width), starts.size() - base));
    ++blocks;
    const auto result = [&](int w) -> Result<T>& {
      return results[base + static_cast<std::size_t>(w)];
    };
    const auto run = [&](int w) {
      return detail::Run<T>(result(w), opt.tolerance, nullptr);
    };
    // A lane retires (and is recorded) the moment its run stops; it keeps
    // riding along in the kernel calls, but its row is never updated again.
    const auto retire = [&]([[maybe_unused]] int w) {
      TE_OBS_ONLY(detail::record_solve(result(w), opt));
    };
    const auto any_live = [&] {
      for (int w = 0; w < lanes; ++w) {
        if (run(w).live()) return true;
      }
      return false;
    };

    // Lanes beyond `lanes` (the partial final block) keep zero rows and are
    // never read back.
    x.fill(T(0));
    for (int w = 0; w < lanes; ++w) {
      const auto& x0 = starts[base + static_cast<std::size_t>(w)];
      if (!run(w).start({x0.data(), x0.size()})) {
        retire(w);
        continue;
      }
      x.load_lane(w, {result(w).x.data(), result(w).x.size()});
    }

    if (any_live()) {
      k.ttsv0(x, {out0.data(), out0.size()}, ops);
      for (int w = 0; w < lanes; ++w) {
        if (run(w).live() &&
            !run(w).accept_first(out0[static_cast<std::size_t>(w)])) {
          retire(w);
        }
      }
    }

    for (int it = 0; it < opt.max_iterations && any_live(); ++it) {
      for (int w = 0; w < lanes; ++w) {
        ++(run(w).live() ? live_lane_iters : wasted_lane_iters);
      }
      if (lanes < width) wasted_lane_iters += width - lanes;

      k.ttsv1(x, y, ops);
      for (int w = 0; w < lanes; ++w) {
        if (!run(w).live()) continue;
        y.store_lane(w, {ybuf.data(), ybuf.size()});
        if (run(w).update({ybuf.data(), ybuf.size()}, alpha, sign, ops)) {
          x.load_lane(w, {result(w).x.data(), result(w).x.size()});
        } else {
          retire(w);
        }
      }
      if (!any_live()) break;

      k.ttsv0(x, {out0.data(), out0.size()}, ops);
      for (int w = 0; w < lanes; ++w) {
        if (run(w).live() &&
            !run(w).accept(out0[static_cast<std::size_t>(w)])) {
          retire(w);
        }
      }
    }

    // Budget exhausted: the survivors report kMaxIterations.
    for (int w = 0; w < lanes; ++w) {
      if (run(w).live()) {
        run(w).finish();
        retire(w);
      }
    }
  }

  TE_OBS_ONLY({
    auto& m = detail::MultiSolveMetrics::get();
    m.blocks.add(blocks);
    m.lane_iterations.add(live_lane_iters);
    m.lane_iterations_wasted.add(wasted_lane_iters);
    m.width.set(static_cast<double>(width));
    const std::int64_t total = live_lane_iters + wasted_lane_iters;
    if (total > 0) {
      m.occupancy.set(static_cast<double>(live_lane_iters) /
                      static_cast<double>(total));
    }
  });
  (void)blocks;
  (void)live_lane_iters;
  (void)wasted_lane_iters;
  return results;
}

/// The start sweep: SS-HOPM from every start against one bound tensor,
/// results written in start order into `out` (one slot per start). Width-1
/// facades run detail::sweep_runs, solve()'s stepping code with
/// detail::kRunsInFlight runs in flight and bitwise solve() per slot; wider
/// ones run the lane-blocked solve_multi. The one-shot CPU backends, the
/// scheduler's CPU chunks and find_eigenpairs all sweep through here.
template <Real T>
void solve_starts(const kernels::BoundKernels<T>& k,
                  std::span<const std::vector<T>> starts, const Options& opt,
                  std::span<Result<T>> out, OpCounts* ops = nullptr) {
  TE_REQUIRE(out.size() == starts.size(), "one result slot per start");
  if (k.width() == 1) {
    detail::sweep_runs<T>(
        k, starts.size(),
        [starts](std::size_t v) {
          return std::span<const T>(starts[v].data(), starts[v].size());
        },
        [out](std::size_t v) -> Result<T>& { return out[v]; }, opt, ops,
        nullptr);
    return;
  }
  auto runs = solve_multi(k, starts, opt, ops);
  std::move(runs.begin(), runs.end(), out.begin());
}

}  // namespace te::sshopm
