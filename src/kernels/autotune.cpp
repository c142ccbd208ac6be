#include "te/kernels/autotune.hpp"

#include <string>

#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"
#include "te/util/timer.hpp"

namespace te::kernels {

double AutotuneReport::best_us() const {
  switch (best) {
    case Tier::kGeneral:
      return general_us;
    case Tier::kPrecomputed:
      return precomputed_us;
    case Tier::kUnrolled:
      return unrolled_us;
    case Tier::kJit:
      return jit_us;
    case Tier::kBlocked:  // device-only: not an autotune candidate
      break;
  }
  return -1;
}

AutotuneReport autotune_tier(int order, int dim, int min_reps) {
  TE_REQUIRE(min_reps >= 1, "need at least one rep");
  CounterRng rng(0x7e57);
  const auto a = random_symmetric_tensor<float>(rng, 1, order, dim);
  const KernelTables<float> tables(order, dim);
  std::vector<float> x(static_cast<std::size_t>(dim));
  std::vector<float> y(static_cast<std::size_t>(dim));
  for (int i = 0; i < dim; ++i) {
    x[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.in(2, static_cast<std::uint64_t>(i), -1, 1));
  }

  AutotuneReport report;
  float sink = 0;

  const auto measure = [&](Tier tier) -> double {
    const KernelTables<float>* tab = uses_tables(tier) ? &tables : nullptr;
    if (tier == Tier::kUnrolled && find_unrolled<float>(order, dim) == nullptr) {
      return -1;
    }
    if (tier == Tier::kJit && find_jit<float>(order, dim) == nullptr) {
      return -1;
    }
    BoundKernels<float> k(a, tier, tab);
    WallTimer timer;
    for (int r = 0; r < min_reps; ++r) {
      sink += k.ttsv0({x.data(), x.size()});
      k.ttsv1({x.data(), x.size()}, {y.data(), y.size()});
      sink += y[0];
    }
    return timer.seconds() * 1e6 / min_reps;
  };

  report.general_us = measure(Tier::kGeneral);
  report.precomputed_us = measure(Tier::kPrecomputed);
  report.unrolled_us = measure(Tier::kUnrolled);
  report.jit_us = measure(Tier::kJit);

  // Keep the compiler from deleting the measurement loops.
  if (sink == 12345.678f) report.general_us += 1e-9;

  double best = report.general_us;
  report.best = Tier::kGeneral;
  const auto consider = [&](Tier tier, double us) {
    if (us >= 0 && us < best) {
      best = us;
      report.best = tier;
    }
  };
  consider(Tier::kPrecomputed, report.precomputed_us);
  consider(Tier::kUnrolled, report.unrolled_us);
  consider(Tier::kJit, report.jit_us);
  return report;
}

MultiWidthReport autotune_multi_width(int order, int dim, Tier tier,
                                      int min_reps) {
  TE_REQUIRE(min_reps >= 1, "need at least one rep");
  CounterRng rng(0x517d);
  const auto a = random_symmetric_tensor<float>(rng, 1, order, dim);
  const KernelTables<float>* tab = nullptr;
  KernelTables<float> tables(order, dim);
  if (uses_tables(tier)) tab = &tables;

  MultiWidthReport report;
  report.tier = tier;
  float sink = 0;

  const auto measure = [&](int width) -> double {
    if (tier == Tier::kUnrolled &&
        find_unrolled<float>(order, dim) == nullptr) {
      return -1;
    }
    if (tier == Tier::kJit && find_jit<float>(order, dim) == nullptr) {
      return -1;
    }
    BoundKernels<float> k(a, tier, tab, width);
    // A width that degrades to the per-lane fallback is the scalar math
    // plus gather overhead -- never preferable to width 1, so don't let
    // timing noise pick it. The predicate is the facade's own vectorized()
    // (genuine fallback detection), not compile-time registry membership,
    // so runtime-admitted JIT widths are timed here like any other.
    if (width > 1 && !k.vectorized()) return -1;
    VectorBatch<float> x(dim, width);
    VectorBatch<float> y(dim, width);
    std::vector<float> out(static_cast<std::size_t>(width));
    for (int i = 0; i < dim; ++i) {
      for (int w = 0; w < width; ++w) {
        x.at(i, w) = static_cast<float>(
            rng.in(3, static_cast<std::uint64_t>(i * width + w), -1, 1));
      }
    }
    WallTimer timer;
    for (int r = 0; r < min_reps; ++r) {
      k.ttsv0(x, {out.data(), out.size()});
      sink += out[0];
      k.ttsv1(x, y);
      sink += y.at(0, 0);
    }
    return timer.seconds() * 1e6 / (static_cast<double>(min_reps) * width);
  };

  double best = -1;
  std::vector<int> widths = {1};
  for (const int w : multi_widths()) widths.push_back(w);
  for (const int w : widths) {
    const double us = measure(w);
    if (us < 0) continue;  // no vectorized route at this width
    report.lane_us.emplace_back(w, us);
    if (best < 0 || us < best) {
      best = us;
      report.best_width = w;
    }
  }

  // Keep the compiler from deleting the measurement loops.
  if (sink == 12345.678f && !report.lane_us.empty()) {
    report.lane_us.front().second += 1e-9;
  }

  TE_OBS_ONLY(obs::global()
                  .gauge("kernels.multi.autotune_width." +
                         std::string(tier_name(tier)))
                  .set(static_cast<double>(report.best_width)));
  return report;
}

}  // namespace te::kernels
