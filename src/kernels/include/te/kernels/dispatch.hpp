#pragma once
// Runtime selection of a kernel tier and a lane width.
//
// The unrolled tier is a family of compile-time instantiations; this header
// exposes a registry of prebuilt shapes (the application sizes plus a sweep
// used by the occupancy study), the registries of the multi-vector (SoA)
// kernels, and the one BoundKernels facade that lets SS-HOPM and the batch
// backends pick a tier at runtime while the kernels themselves stay fully
// typed.
//
// Every facade carries two call routes: the tier's scalar kernel (span
// calls) and its width-kSweepLanes lane route (the raw-SoA lane calls
// behind sshopm's start sweep, bound whatever the facade's width). Per lane
// the vector kernels execute the scalar kernel's operation sequence and get
// the same FMA contraction, so a lane's output is the scalar call's bit for
// bit (DESIGN.md section 11); where that cannot hold (jit) or no vector
// kernel exists (dim > kMaxBatchDim), the lanes run one by one through the
// scalar kernel. The facade's `width` only sizes the
// VectorBatch calls of direct callers (benches, te_analyze, the autotuner).

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "te/kernels/general.hpp"
#include "te/kernels/jit_registry.hpp"
#include "te/kernels/multi.hpp"
#include "te/kernels/precomputed.hpp"
#include "te/obs/obs.hpp"
#include "te/tensor/symmetric_tensor.hpp"
#include "te/util/op_counter.hpp"

namespace te::kernels {

/// Kernel implementation tier (paper Section V's "General" vs "Unrolled";
/// kPrecomputed is the Section III-B.5 storage/compute trade; kJit is the
/// unrolled expansion generated, compiled and admitted at *runtime* for
/// shapes the compile-time registry never saw).
///
/// The values are persisted (checkpoint job records and problem
/// fingerprints store static_cast<int32_t>(tier)), so they never change.
/// Slots 2 and 5 belonged to retired tiers and stay unused, so a persisted
/// 5 (the old blocked_par tier) matches no tier and is refused.
enum class Tier {
  kGeneral = 0,
  kPrecomputed = 1,
  kBlocked = 3,
  kUnrolled = 4,
  kJit = 6,
};

static_assert(static_cast<int>(Tier::kGeneral) == 0 &&
                  static_cast<int>(Tier::kPrecomputed) == 1 &&
                  static_cast<int>(Tier::kBlocked) == 3 &&
                  static_cast<int>(Tier::kUnrolled) == 4 &&
                  static_cast<int>(Tier::kJit) == 6,
              "Tier values are persisted; do not renumber");

/// Every tier, in the order metrics arrays and tier sweeps use.
inline constexpr std::array<Tier, 5> kAllTiers = {
    Tier::kGeneral, Tier::kPrecomputed, Tier::kBlocked, Tier::kUnrolled,
    Tier::kJit};

/// Number of tiers (metrics arrays and tier sweeps size off this).
inline constexpr int kNumTiers = static_cast<int>(kAllTiers.size());

/// The tier-placement rule, in one place. Host tiers are the ones
/// BoundKernels binds and the CPU backends run; device tiers are the ones
/// the simulated-GPU kernel (gpusim::sshopm_device_thread) implements.
/// kBlocked is device-only; past the unrolled registry the host runs jit
/// or precomputed instead.
inline constexpr std::array<Tier, 4> kHostTiers = {
    Tier::kGeneral, Tier::kPrecomputed, Tier::kUnrolled, Tier::kJit};
inline constexpr std::array<Tier, 3> kDeviceTiers = {
    Tier::kGeneral, Tier::kBlocked, Tier::kUnrolled};

[[nodiscard]] constexpr bool runs_on_host(Tier t) {
  return std::ranges::find(kHostTiers, t) != kHostTiers.end();
}

[[nodiscard]] constexpr bool runs_on_device(Tier t) {
  return std::ranges::find(kDeviceTiers, t) != kDeviceTiers.end();
}

[[nodiscard]] constexpr std::string_view tier_name(Tier t) {
  switch (t) {
    case Tier::kGeneral:
      return "general";
    case Tier::kPrecomputed:
      return "precomputed";
    case Tier::kBlocked:
      return "blocked";
    case Tier::kUnrolled:
      return "unrolled";
    case Tier::kJit:
      return "jit";
  }
  return "?";
}

/// Inverse of tier_name; nullopt for names no tier carries.
[[nodiscard]] constexpr std::optional<Tier> tier_from_name(
    std::string_view name) {
  for (const Tier t : kAllTiers) {
    if (tier_name(t) == name) return t;
  }
  return std::nullopt;
}

/// Position of `t` in kAllTiers (the index of its per-tier metrics slot).
[[nodiscard]] constexpr int tier_index(Tier t) {
  for (int i = 0; i < kNumTiers; ++i) {
    if (kAllTiers[static_cast<std::size_t>(i)] == t) return i;
  }
  return 0;
}

/// True for the tiers that read KernelTables (and so need them built).
[[nodiscard]] constexpr bool uses_tables(Tier t) {
  return t == Tier::kPrecomputed || t == Tier::kBlocked;
}

#if TE_OBS_ENABLED
namespace detail {
/// Per-tier dispatch counters, name-resolved once: the per-call cost in the
/// iteration hot loop is one relaxed atomic increment. Only host tiers get
/// a counter (the slots of device-only tiers stay null: nothing binds them).
struct DispatchMetrics {
  obs::Counter* ttsv0_calls[kNumTiers] = {};
  obs::Counter* ttsv1_calls[kNumTiers] = {};

  static DispatchMetrics& get() {
    static DispatchMetrics m = [] {
      DispatchMetrics d;
      for (const Tier t : kHostTiers) {
        const std::string base(tier_name(t));
        d.ttsv0_calls[tier_index(t)] =
            &obs::global().counter("kernels.ttsv0.calls." + base);
        d.ttsv1_calls[tier_index(t)] =
            &obs::global().counter("kernels.ttsv1.calls." + base);
      }
      return d;
    }();
    return m;
  }
};
}  // namespace detail
#endif  // TE_OBS_ENABLED

/// Function-pointer record for one prebuilt unrolled shape.
template <Real T>
struct UnrolledEntry {
  int order;
  int dim;
  T (*ttsv0)(const T* a, const T* x);
  void (*ttsv1)(const T* a, const T* x, T* y);
  OpCounts ops0;  ///< exact float-op mix of one ttsv0 call
  OpCounts ops1;  ///< exact float-op mix of one ttsv1 call
};

/// All prebuilt unrolled shapes for scalar type T (float and double are
/// provided). Shapes: every (m, n) with m in {2,3,4,6} n in {2..6} plus
/// (5,3) and (8,3) -- the application sizes and the occupancy-study sweep.
template <Real T>
[[nodiscard]] std::span<const UnrolledEntry<T>> unrolled_registry();

/// Lookup; nullptr when the shape was not prebuilt.
template <Real T>
[[nodiscard]] const UnrolledEntry<T>* find_unrolled(int order, int dim);

/// Lane widths with vectorized kernel instantiations, ascending. Width 1
/// is always accepted by BoundKernels as the scalar per-lane route.
[[nodiscard]] std::span<const int> multi_widths() noexcept;

/// True when `width` is 1 or a registered vector width.
[[nodiscard]] bool is_multi_width(int width) noexcept;

/// Heuristic lane pick: one full vector register of T (AVX-512: 16 floats
/// / 8 doubles), rounded down to a registered width. Every host tier has a
/// vectorized route, so the pick depends on neither the shape nor the tier.
template <Real T>
[[nodiscard]] int pick_simd_width();

/// Vectorized general-tier entry points for one width.
template <Real T>
struct MultiGeneralFns {
  int width;
  void (*ttsv0)(int order, int dim, const T* values, const T* xb, T* out,
                OpCounts* ops);
  void (*ttsv1)(int order, int dim, const T* values, const T* xb, T* yb,
                OpCounts* ops);
};

/// Vectorized precomputed-tier entry points for one width.
template <Real T>
struct MultiPrecomputedFns {
  int width;
  void (*ttsv0)(const KernelTables<T>& tab, const T* values, const T* xb,
                T* out, OpCounts* ops);
  void (*ttsv1)(const KernelTables<T>& tab, const T* values, const T* xb,
                T* yb, OpCounts* ops);
};

/// One prebuilt (order, dim, width) unrolled multi shape.
template <Real T>
struct MultiUnrolledEntry {
  int order;
  int dim;
  int width;
  void (*ttsv0)(const T* a, const T* xb, T* out);
  void (*ttsv1)(const T* a, const T* xb, T* yb);
};

/// Lookups; nullptr when no vectorized instantiation exists.
template <Real T>
[[nodiscard]] const MultiGeneralFns<T>* find_multi_general(int width) noexcept;
template <Real T>
[[nodiscard]] const MultiPrecomputedFns<T>* find_multi_precomputed(
    int width) noexcept;
template <Real T>
[[nodiscard]] const MultiUnrolledEntry<T>* find_multi_unrolled(
    int order, int dim, int width) noexcept;

/// Largest dimension the VectorBatch calls accept (their per-lane fallback
/// gathers a lane into a stack buffer of this size).
inline constexpr int kMaxBatchDim = 64;

/// Lanes of the start sweep's vector route: every facade binds its tier's
/// width-kSweepLanes kernels (every unrolled registry shape has them). A
/// constant, not an option: the sweep's results do not depend on it.
inline constexpr int kSweepLanes = 8;

/// Tensor + tier + lane width bound together behind a uniform call
/// interface.
///
/// Span calls (one vector) run the tier's scalar kernel. The lane calls
/// (ttsv{0,1}_lanes: kSweepLanes vectors in raw SoA rows) run the tier's
/// width-kSweepLanes vector kernel, or each live lane through the scalar
/// kernel where it has none (jit, and dim > kMaxBatchDim). VectorBatch calls
/// (width() vectors in SoA layout) run the vectorized multi kernel where
/// one is registered at this width -- general, precomputed, and
/// unrolled/jit shapes registered at this width -- and otherwise gather
/// each lane through the scalar kernel. The lane calls are bitwise the
/// scalar kernel per lane, and so are the VectorBatch calls except jit's
/// (DESIGN.md section 11).
///
/// Width: 1 (the default) gives VectorBatch calls the per-lane scalar
/// route; 0 resolves to pick_simd_width(); anything else must be a
/// registered power of two (multi_widths()). Widths other than 1 need
/// dim <= kMaxBatchDim.
///
/// Binds host tiers only (kHostTiers); the device-only kBlocked is refused
/// with InvalidArgument. The bound tensor and the tables (precomputed)
/// must outlive the facade. kUnrolled requires the shape to be present in
/// the registry; callers that want graceful fallback should check
/// find_unrolled first. kJit likewise requires an
/// admitted runtime kernel (te::jit acquires, proves and registers them;
/// jit::acquire_tier is the graceful-fallback entry point that degrades to
/// kPrecomputed instead of throwing here).
///
/// Thread safety: every call is const and the facade is immutable after
/// construction, so one BoundKernels may be shared across threads.
template <Real T>
class BoundKernels {
 public:
  BoundKernels(const SymmetricTensor<T>& a, Tier tier,
               const KernelTables<T>* tables = nullptr, int width = 1)
      : a_(&a), tier_(tier), tables_(tables) {
    TE_REQUIRE(runs_on_host(tier),
               "tier '" << tier_name(tier) << "' runs on the GPU backend only");
    if (uses_tables(tier)) {
      TE_REQUIRE(tables != nullptr &&
                     tables->order() == a.order() && tables->dim() == a.dim(),
                 "precomputed tier needs matching KernelTables");
    } else if (tier == Tier::kUnrolled) {
      unrolled_ = find_unrolled<T>(a.order(), a.dim());
      TE_REQUIRE(unrolled_ != nullptr,
                 "no unrolled instantiation for order "
                     << a.order() << ", dim " << a.dim());
    } else if (tier == Tier::kJit) {
      jit_ = find_jit<T>(a.order(), a.dim());
      TE_REQUIRE(jit_ != nullptr,
                 "no admitted JIT kernel for order "
                     << a.order() << ", dim " << a.dim()
                     << " (acquire via te::jit first)");
    }
    if (a.dim() <= kMaxBatchDim) bind_lanes();
    if (width != 1) bind_width(width);
  }

  [[nodiscard]] const SymmetricTensor<T>& tensor() const { return *a_; }
  [[nodiscard]] Tier tier() const { return tier_; }

  /// Lanes per VectorBatch call (resolved; what every batch must be sized
  /// to).
  [[nodiscard]] int width() const { return width_; }

  /// True when VectorBatch calls take a SIMD route; false means the
  /// per-lane scalar fallback (bitwise identical to the span calls).
  [[nodiscard]] bool vectorized() const {
    return multi_general_ != nullptr || multi_precomputed_ != nullptr ||
           multi_unrolled_ != nullptr || multi_jit_ != nullptr;
  }

  /// Span calls count once per call under kernels.ttsv{0,1}.calls.<tier>.
  [[nodiscard]] T ttsv0(std::span<const T> x, OpCounts* ops = nullptr) const {
    TE_OBS_ONLY(
        detail::DispatchMetrics::get().ttsv0_calls[tier_index(tier_)]->inc());
    return ttsv0_uncounted(x, ops);
  }

  void ttsv1(std::span<const T> x, std::span<T> y,
             OpCounts* ops = nullptr) const {
    TE_OBS_ONLY(
        detail::DispatchMetrics::get().ttsv1_calls[tier_index(tier_)]->inc());
    ttsv1_uncounted(x, y, ops);
  }

  /// The span calls without their counter increment, for a loop that
  /// tallies its calls itself and publishes them once through
  /// count_calls() (sshopm's start sweep). Same arithmetic.
  [[nodiscard]] T ttsv0_uncounted(std::span<const T> x, OpCounts* ops) const {
    switch (tier_) {
      case Tier::kGeneral:
        return ttsv0_general(*a_, x, ops);
      case Tier::kPrecomputed:
        return ttsv0_precomputed(*a_, *tables_, x, ops);
      case Tier::kBlocked:  // device-only: refused at bind
        break;
      case Tier::kUnrolled: {
        if (ops) *ops += unrolled_->ops0;
        return unrolled_->ttsv0(a_->values().data(), x.data());
      }
      case Tier::kJit: {
        if (ops) *ops += jit_->ops0;
        return jit_->ttsv0(a_->values().data(), x.data());
      }
    }
    TE_REQUIRE(false, "unreachable");
    return T(0);
  }

  void ttsv1_uncounted(std::span<const T> x, std::span<T> y,
                       OpCounts* ops) const {
    switch (tier_) {
      case Tier::kGeneral:
        ttsv1_general(*a_, x, y, ops);
        return;
      case Tier::kPrecomputed:
        ttsv1_precomputed(*a_, *tables_, x, y, ops);
        return;
      case Tier::kBlocked:  // device-only: refused at bind
        break;
      case Tier::kUnrolled:
        if (ops) *ops += unrolled_->ops1;
        unrolled_->ttsv1(a_->values().data(), x.data(), y.data());
        return;
      case Tier::kJit:
        if (ops) *ops += jit_->ops1;
        jit_->ttsv1(a_->values().data(), x.data(), y.data());
        return;
    }
    TE_REQUIRE(false, "unreachable");
  }

  /// Add calls made through the *_uncounted entry points to this tier's
  /// kernels.ttsv{0,1}.calls counters (a no-op under TE_OBS=OFF).
  void count_calls([[maybe_unused]] std::int64_t ttsv0_calls,
                   [[maybe_unused]] std::int64_t ttsv1_calls) const {
    TE_OBS_ONLY({
      auto& m = detail::DispatchMetrics::get();
      if (ttsv0_calls != 0) m.ttsv0_calls[tier_index(tier_)]->add(ttsv0_calls);
      if (ttsv1_calls != 0) m.ttsv1_calls[tier_index(tier_)]->add(ttsv1_calls);
    });
  }

  /// out[w] = A x_w^m for the kSweepLanes vectors of the SoA rows `xb`
  /// (component i of lane w at xb[i * kSweepLanes + w]). Uncounted, like
  /// ttsv0_uncounted: the sweep publishes its calls through count_calls().
  /// `live` is a bit mask of the lanes whose output is wanted; the others
  /// hold don't-care values, may be skipped, and leave their outputs
  /// unspecified. `ops` gains one scalar call's counts per live lane, so a
  /// sweep tallies exactly what its runs would alone.
  void ttsv0_lanes(const T* xb, T* out, unsigned live, OpCounts* ops) const {
    if (ops) *ops += scalar_ops(0) * std::popcount(live);
    const T* values = a_->values().data();
    if (lane_general_ != nullptr) {
      lane_general_->ttsv0(a_->order(), a_->dim(), values, xb, out, nullptr);
    } else if (lane_precomputed_ != nullptr) {
      lane_precomputed_->ttsv0(*tables_, values, xb, out, nullptr);
    } else if (lane_unrolled_ != nullptr) {
      lane_unrolled_->ttsv0(values, xb, out);
    } else {
      per_lane(xb, live, [&](std::span<const T> x, int w) {
        out[w] = ttsv0_uncounted(x, nullptr);
      });
    }
  }

  /// y_w = A x_w^{m-1} for the kSweepLanes vectors of `xb` into the SoA
  /// rows `yb` (same layout); `live` and `ops` as for ttsv0_lanes.
  void ttsv1_lanes(const T* xb, T* yb, unsigned live, OpCounts* ops) const {
    if (ops) *ops += scalar_ops(1) * std::popcount(live);
    const T* values = a_->values().data();
    if (lane_general_ != nullptr) {
      lane_general_->ttsv1(a_->order(), a_->dim(), values, xb, yb, nullptr);
    } else if (lane_precomputed_ != nullptr) {
      lane_precomputed_->ttsv1(*tables_, values, xb, yb, nullptr);
    } else if (lane_unrolled_ != nullptr) {
      lane_unrolled_->ttsv1(values, xb, yb);
    } else {
      const auto n = static_cast<std::size_t>(a_->dim());
      std::vector<T> y(n);
      per_lane(xb, live, [&](std::span<const T> x, int w) {
        ttsv1_uncounted(x, std::span<T>(y), nullptr);
        for (std::size_t i = 0; i < n; ++i) yb[i * kSweepLanes + w] = y[i];
      });
    }
  }

  /// out[w] = A x_w^m for every lane w; out.size() == width().
  void ttsv0(const VectorBatch<T>& x, std::span<T> out,
             OpCounts* ops = nullptr) const {
    check_batch(x);
    TE_REQUIRE(static_cast<int>(out.size()) == width_,
               "output span must have one scalar per lane");
    TE_OBS_ONLY(
        detail::DispatchMetrics::get().ttsv0_calls[tier_index(tier_)]->inc());
    const T* values = a_->values().data();
    if (multi_general_ != nullptr) {
      multi_general_->ttsv0(a_->order(), a_->dim(), values, x.data(),
                            out.data(), ops);
    } else if (multi_precomputed_ != nullptr) {
      multi_precomputed_->ttsv0(*tables_, values, x.data(), out.data(), ops);
    } else if (multi_unrolled_ != nullptr) {
      if (ops) *ops += unrolled_->ops0 * width_;
      multi_unrolled_->ttsv0(values, x.data(), out.data());
    } else if (multi_jit_ != nullptr) {
      if (ops) *ops += jit_->ops0 * width_;
      multi_jit_->ttsv0(values, x.data(), out.data());
    } else {
      T sx[kMaxBatchDim];
      const auto n = static_cast<std::size_t>(a_->dim());
      for (int w = 0; w < width_; ++w) {
        x.store_lane(w, {sx, n});
        out[static_cast<std::size_t>(w)] = ttsv0_uncounted({sx, n}, ops);
      }
    }
  }

  /// y_w = A x_w^{m-1} for every lane w; y must match x's shape.
  void ttsv1(const VectorBatch<T>& x, VectorBatch<T>& y,
             OpCounts* ops = nullptr) const {
    check_batch(x);
    check_batch(y);
    TE_OBS_ONLY(
        detail::DispatchMetrics::get().ttsv1_calls[tier_index(tier_)]->inc());
    const T* values = a_->values().data();
    if (multi_general_ != nullptr) {
      multi_general_->ttsv1(a_->order(), a_->dim(), values, x.data(),
                            y.data(), ops);
    } else if (multi_precomputed_ != nullptr) {
      multi_precomputed_->ttsv1(*tables_, values, x.data(), y.data(), ops);
    } else if (multi_unrolled_ != nullptr) {
      if (ops) *ops += unrolled_->ops1 * width_;
      multi_unrolled_->ttsv1(values, x.data(), y.data());
    } else if (multi_jit_ != nullptr) {
      if (ops) *ops += jit_->ops1 * width_;
      multi_jit_->ttsv1(values, x.data(), y.data());
    } else {
      T sx[kMaxBatchDim];
      T sy[kMaxBatchDim];
      const auto n = static_cast<std::size_t>(a_->dim());
      for (int w = 0; w < width_; ++w) {
        x.store_lane(w, {sx, n});
        ttsv1_uncounted({sx, n}, {sy, n}, ops);
        y.load_lane(w, {sy, n});
      }
    }
  }

 private:
  /// Look up the tier's width-kSweepLanes route for the lane calls. Past
  /// kMaxBatchDim there is none, and jit keeps none either: the host
  /// compiler vectorizes a generated scalar ttsv1 on its own, so its
  /// rounding differs from the generated lane kernel's. Those facades run
  /// the lanes one by one through the scalar kernel.
  void bind_lanes() {
    switch (tier_) {
      case Tier::kGeneral:
        lane_general_ = find_multi_general<T>(kSweepLanes);
        break;
      case Tier::kPrecomputed:
        lane_precomputed_ = find_multi_precomputed<T>(kSweepLanes);
        break;
      case Tier::kUnrolled:
        lane_unrolled_ =
            find_multi_unrolled<T>(a_->order(), a_->dim(), kSweepLanes);
        break;
      case Tier::kJit:
      case Tier::kBlocked:  // device-only: refused at bind
        break;
    }
  }

  /// One scalar call's operation mix (which = 0: ttsv0, 1: ttsv1).
  [[nodiscard]] OpCounts scalar_ops(int which) const {
    switch (tier_) {
      case Tier::kGeneral:
        return which == 0 ? ttsv0_general_ops(a_->order(), a_->dim())
                          : ttsv1_general_ops(a_->order(), a_->dim());
      case Tier::kPrecomputed:
        return which == 0 ? ttsv0_precomputed_ops(*tables_)
                          : ttsv1_precomputed_ops(*tables_);
      case Tier::kUnrolled:
        return which == 0 ? unrolled_->ops0 : unrolled_->ops1;
      case Tier::kJit:
        return which == 0 ? jit_->ops0 : jit_->ops1;
      case Tier::kBlocked:  // device-only: refused at bind
        break;
    }
    return {};
  }

  /// The lane calls' scalar route: gather each live lane of `xb` and hand
  /// it to fn(x, w).
  template <class Fn>
  void per_lane(const T* xb, unsigned live, Fn fn) const {
    const auto n = static_cast<std::size_t>(a_->dim());
    std::vector<T> x(n);
    for (int w = 0; w < kSweepLanes; ++w) {
      if ((live >> w & 1u) == 0) continue;
      for (std::size_t i = 0; i < n; ++i) x[i] = xb[i * kSweepLanes + w];
      fn(std::span<const T>(x), w);
    }
  }

  /// Resolve a width other than 1 and look up its vectorized route.
  void bind_width(int width) {
    TE_REQUIRE(a_->dim() <= kMaxBatchDim,
               "multi kernels support dim <= " << kMaxBatchDim);
    width_ = width == 0 ? pick_simd_width<T>() : width;
    TE_REQUIRE(is_multi_width(width_), "unsupported simd width " << width_);
    if (width_ > 1) {
      switch (tier_) {
        case Tier::kGeneral:
          multi_general_ = find_multi_general<T>(width_);
          break;
        case Tier::kPrecomputed:
          multi_precomputed_ = find_multi_precomputed<T>(width_);
          break;
        case Tier::kUnrolled:
          multi_unrolled_ =
              find_multi_unrolled<T>(a_->order(), a_->dim(), width_);
          break;
        case Tier::kJit:
          multi_jit_ = find_jit_multi<T>(a_->order(), a_->dim(), width_);
          break;
        case Tier::kBlocked:  // device-only: refused at bind
          break;
      }
    }
    TE_OBS_ONLY({
      static obs::Gauge& simd_width =
          obs::global().gauge("kernels.multi.simd_width");
      simd_width.set(static_cast<double>(width_));
    });
  }

  void check_batch(const VectorBatch<T>& b) const {
    TE_REQUIRE(b.dim() == a_->dim() && b.width() == width_ &&
                   b.dim() <= kMaxBatchDim,
               "batch shape (" << b.dim() << " x " << b.width()
                               << ") does not match kernels (" << a_->dim()
                               << " x " << width_ << ")");
  }

  const SymmetricTensor<T>* a_;
  Tier tier_;
  const KernelTables<T>* tables_ = nullptr;
  const UnrolledEntry<T>* unrolled_ = nullptr;
  const JitEntry<T>* jit_ = nullptr;
  int width_ = 1;
  const MultiGeneralFns<T>* multi_general_ = nullptr;
  const MultiPrecomputedFns<T>* multi_precomputed_ = nullptr;
  const MultiUnrolledEntry<T>* multi_unrolled_ = nullptr;
  const JitMultiEntry<T>* multi_jit_ = nullptr;
  const MultiGeneralFns<T>* lane_general_ = nullptr;
  const MultiPrecomputedFns<T>* lane_precomputed_ = nullptr;
  const MultiUnrolledEntry<T>* lane_unrolled_ = nullptr;
};

}  // namespace te::kernels
