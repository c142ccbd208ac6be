#pragma once
// Kernel-tier autotuning.
//
// Which tier wins depends on the shape: unrolled dominates small shapes
// (when an instantiation exists), JIT covers the shapes the registry never
// saw (when a compiler is available), precomputed takes over beyond both,
// and the general tier is the always-available fallback. autotune_tier()
// measures the actual per-call cost of every *available* host tier and
// returns the fastest -- what `tensoreig_cli --tier auto` runs on the CPU
// backends. It never returns blocked (device-only).

#include "te/kernels/dispatch.hpp"

namespace te::kernels {

/// Result of a tuning run: the chosen tier and the per-call microtimings
/// that justified it (microseconds per combined ttsv0 + ttsv1 call; -1 for
/// tiers unavailable at this shape).
struct AutotuneReport {
  Tier best = Tier::kGeneral;
  double general_us = -1;
  double precomputed_us = -1;
  double unrolled_us = -1;
  double jit_us = -1;

  [[nodiscard]] double best_us() const;
};

/// Measure every available tier at shape (order, dim) and pick the
/// fastest. `min_reps` controls measurement cost (each tier runs at least
/// this many ttsv0+ttsv1 pairs).
[[nodiscard]] AutotuneReport autotune_tier(int order, int dim,
                                           int min_reps = 2000);

/// Result of a multi-vector width tuning run: per-lane cost of every lane
/// width at one (shape, tier), including the width-1 per-vector baseline.
struct MultiWidthReport {
  Tier tier = Tier::kGeneral;
  int best_width = 1;
  /// (width, microseconds per *lane* per ttsv0+ttsv1 pair). Only widths
  /// with a genuinely vectorized route are candidates -- that includes
  /// runtime-admitted JIT widths, not just compile-time registry members; a
  /// width that would degrade to the per-lane scalar fallback is the same
  /// math plus gather overhead, so it is never worth picking over width 1
  /// and is not timed.
  std::vector<std::pair<int, double>> lane_us;
};

/// Measure the multi kernels at (order, dim, tier) across width 1 and all
/// registered vector widths with a vectorized route, and pick the
/// cheapest per lane. The refusal predicate is BoundKernels::vectorized()
/// -- genuine per-lane fallback -- so JIT-admitted widths are timed like
/// any registry width; widths with no vectorized route (unregistered
/// unrolled shapes, unadmitted JIT widths) are not timed, so such a shape
/// reports width 1. The chosen width is recorded in the te::obs gauge
/// `kernels.multi.autotune_width.<tier>` so dispatch regressions show up
/// in exported metric trajectories.
[[nodiscard]] MultiWidthReport autotune_multi_width(int order, int dim,
                                                    Tier tier,
                                                    int min_reps = 500);

}  // namespace te::kernels
