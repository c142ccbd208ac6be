#pragma once
// Register-blocked kernels for shapes too large to unroll completely
// (the paper's future work: "to scale to larger problems we need a blocked
// approach ... an efficient blocking strategy to allow for loop unrolling
// and the use of register variables").
//
// The full unrolled tier burns the entire class enumeration into the
// instruction stream, which stops paying off once the body overflows
// registers and the instruction cache (see bench_occupancy). The blocked
// tier keeps the paper's two key ingredients --
//   * the input vector in registers (a fixed-size local array),
//   * multiple independent accumulator chains for ILP --
// while strip-mining the class list into panels of kPanel classes whose
// inner loops the compiler unrolls (compile-time trip counts). Index and
// coefficient data come from the shared precomputed tables, so the loop
// body is branch-free floating point, at any (m, n).
//
// Blocked is a device-only tier: these raw cores run inside the
// simulated-GPU kernel on its shared-memory copies. On the host the JIT
// tier generates the fully unrolled code for any shape instead.

#include <span>

#include "te/kernels/precomputed.hpp"
#include "te/util/op_counter.hpp"

namespace te::kernels {

/// Largest dimension whose x vector fits the blocked tier's register copy.
inline constexpr int kBlockedMaxDim = 32;

/// A x^m, panel-blocked: raw core over packed values (the simulated-GPU
/// kernels call it on shared-memory arrays).
template <Real T, int kPanel = 4>
[[nodiscard]] T ttsv0_blocked_raw(const T* values, const KernelTables<T>& tab,
                                  std::span<const T> x,
                                  OpCounts* ops = nullptr) {
  static_assert(kPanel >= 1 && kPanel <= 16);
  TE_REQUIRE(static_cast<int>(x.size()) == tab.dim(),
             "vector length mismatch");
  TE_REQUIRE(tab.dim() <= kBlockedMaxDim, "dimension exceeds blocked cap");

  const int m = tab.order();
  const T* vals = values;
  const offset_t u = tab.num_classes();

  // Register-resident copy of x.
  T xr[kBlockedMaxDim];
  for (int i = 0; i < tab.dim(); ++i) xr[i] = x[static_cast<std::size_t>(i)];

  // kPanel independent accumulator chains.
  double acc[kPanel] = {};
  offset_t r = 0;
  for (; r + kPanel <= u; r += kPanel) {
#pragma GCC unroll 16
    for (int l = 0; l < kPanel; ++l) {
      const auto idx = tab.class_index(r + l);
      T prod = xr[idx[0]];
      for (int t = 1; t < m; ++t) prod *= xr[idx[t]];
      acc[l] += static_cast<double>(
          tab.coeff0(r + l) * vals[static_cast<std::size_t>(r + l)] * prod);
    }
  }
  for (; r < u; ++r) {  // remainder panel
    const auto idx = tab.class_index(r);
    T prod = xr[idx[0]];
    for (int t = 1; t < m; ++t) prod *= xr[idx[t]];
    acc[0] += static_cast<double>(tab.coeff0(r) *
                                  vals[static_cast<std::size_t>(r)] * prod);
  }
  double y = 0;
  for (int l = 0; l < kPanel; ++l) y += acc[l];
  if (ops) {
    ops->fmul += u * (m + 1);
    ops->fadd += u + kPanel;
    ops->iop += u;
  }
  return static_cast<T>(y);
}

/// y = A x^{m-1}, panel-blocked over the Eq. 6 contribution list (raw
/// core; see ttsv0_blocked_raw).
template <Real T, int kPanel = 4>
void ttsv1_blocked_raw(const T* values, const KernelTables<T>& tab,
                       std::span<const T> x, std::span<T> y,
                       OpCounts* ops = nullptr) {
  static_assert(kPanel >= 1 && kPanel <= 16);
  TE_REQUIRE(static_cast<int>(x.size()) == tab.dim() &&
                 static_cast<int>(y.size()) == tab.dim(),
             "vector length mismatch");
  TE_REQUIRE(tab.dim() <= kBlockedMaxDim, "dimension exceeds blocked cap");

  const int m = tab.order();
  const T* vals = values;
  const auto contribs = tab.contributions();
  const auto s_total = static_cast<offset_t>(contribs.size());

  T xr[kBlockedMaxDim];
  for (int i = 0; i < tab.dim(); ++i) xr[i] = x[static_cast<std::size_t>(i)];

  double acc[kBlockedMaxDim] = {};
  offset_t s = 0;
  for (; s + kPanel <= s_total; s += kPanel) {
#pragma GCC unroll 16
    for (int l = 0; l < kPanel; ++l) {
      const auto& c = contribs[static_cast<std::size_t>(s + l)];
      const auto idx = tab.class_index(c.cls);
      T prod = T(1);
      for (int t = 0; t < m; ++t) {
        if (t != c.skip_pos) prod *= xr[idx[t]];
      }
      acc[c.out_index] += static_cast<double>(
          c.sigma * vals[static_cast<std::size_t>(c.cls)] * prod);
    }
  }
  for (; s < s_total; ++s) {
    const auto& c = contribs[static_cast<std::size_t>(s)];
    const auto idx = tab.class_index(c.cls);
    T prod = T(1);
    for (int t = 0; t < m; ++t) {
      if (t != c.skip_pos) prod *= xr[idx[t]];
    }
    acc[c.out_index] += static_cast<double>(
        c.sigma * vals[static_cast<std::size_t>(c.cls)] * prod);
  }
  for (int i = 0; i < tab.dim(); ++i) {
    y[static_cast<std::size_t>(i)] =
        static_cast<T>(acc[static_cast<std::size_t>(i)]);
  }
  if (ops) {
    ops->fmul += s_total * (m + 1);
    ops->fadd += s_total;
    ops->iop += 2 * s_total;
  }
}

}  // namespace te::kernels
