#include "te/kernels/dispatch.hpp"

namespace te::kernels {

namespace {

// Vector widths instantiated for every scalar type. Wider-than-register
// packs (e.g. Pack<double, 16> on AVX2) still compile -- the compiler
// splits them -- so one width set serves float and double.
constexpr int kWidths[] = {2, 4, 8, 16};

template <Real T, int W>
MultiGeneralFns<T> make_general() {
  return {W, &ttsv0_multi_general_raw<T, W>, &ttsv1_multi_general_raw<T, W>};
}

template <Real T, int W>
MultiPrecomputedFns<T> make_precomputed() {
  return {W, &ttsv0_multi_precomputed_raw<T, W>,
          &ttsv1_multi_precomputed_raw<T, W>};
}

template <Real T, int M, int N, int W>
MultiUnrolledEntry<T> make_unrolled() {
  return {M, N, W, &ttsv0_multi_unrolled<T, M, N, W>,
          &ttsv1_multi_unrolled<T, M, N, W>};
}

template <Real T>
std::span<const MultiGeneralFns<T>> general_registry() {
  static const MultiGeneralFns<T> entries[] = {
      make_general<T, 2>(),
      make_general<T, 4>(),
      make_general<T, 8>(),
      make_general<T, 16>(),
  };
  return entries;
}

template <Real T>
std::span<const MultiPrecomputedFns<T>> precomputed_registry() {
  static const MultiPrecomputedFns<T> entries[] = {
      make_precomputed<T, 2>(),
      make_precomputed<T, 4>(),
      make_precomputed<T, 8>(),
      make_precomputed<T, 16>(),
  };
  return entries;
}

// Unrolled multi shapes. At kSweepLanes every scalar registry shape
// (dispatch.cpp) has one, because the start sweep runs every unrolled
// facade through it. The other widths keep the application size (4,3), its
// neighbours and the bench sweep shapes: the straight-line expansion grows
// as kU x W, so those sets stay small, and their other shapes fall back to
// per-lane scalar unrolled calls.
template <Real T, int W>
void append_unrolled_width(std::vector<MultiUnrolledEntry<T>>& v) {
  v.push_back(make_unrolled<T, 2, 3, W>());
  v.push_back(make_unrolled<T, 3, 3, W>());
  v.push_back(make_unrolled<T, 4, 3, W>());
  v.push_back(make_unrolled<T, 4, 4, W>());
  v.push_back(make_unrolled<T, 4, 5, W>());
  v.push_back(make_unrolled<T, 6, 3, W>());
}

template <Real T>
void append_sweep_width(std::vector<MultiUnrolledEntry<T>>& v) {
  constexpr int W = kSweepLanes;
  append_unrolled_width<T, W>(v);
  v.push_back(make_unrolled<T, 2, 2, W>());
  v.push_back(make_unrolled<T, 2, 4, W>());
  v.push_back(make_unrolled<T, 2, 5, W>());
  v.push_back(make_unrolled<T, 2, 6, W>());
  v.push_back(make_unrolled<T, 3, 2, W>());
  v.push_back(make_unrolled<T, 3, 4, W>());
  v.push_back(make_unrolled<T, 3, 5, W>());
  v.push_back(make_unrolled<T, 3, 6, W>());
  v.push_back(make_unrolled<T, 4, 2, W>());
  v.push_back(make_unrolled<T, 4, 6, W>());
  v.push_back(make_unrolled<T, 5, 3, W>());
  v.push_back(make_unrolled<T, 6, 4, W>());
  v.push_back(make_unrolled<T, 8, 3, W>());
}

template <Real T>
std::span<const MultiUnrolledEntry<T>> unrolled_multi_registry() {
  static const std::vector<MultiUnrolledEntry<T>> entries = [] {
    std::vector<MultiUnrolledEntry<T>> v;
    append_unrolled_width<T, 2>(v);
    append_unrolled_width<T, 4>(v);
    append_sweep_width<T>(v);
    append_unrolled_width<T, 16>(v);
    return v;
  }();
  return entries;
}

}  // namespace

std::span<const int> multi_widths() noexcept { return kWidths; }

bool is_multi_width(int width) noexcept {
  if (width == 1) return true;
  for (const int w : kWidths) {
    if (w == width) return true;
  }
  return false;
}

template <Real T>
int pick_simd_width() {
  int w = simd::preferred_width<T>();
  if (w > simd::kMaxWidth) w = simd::kMaxWidth;
  while (w > 1 && !is_multi_width(w)) w /= 2;
  return w < 2 ? 1 : w;
}

template int pick_simd_width<float>();
template int pick_simd_width<double>();

template <Real T>
const MultiGeneralFns<T>* find_multi_general(int width) noexcept {
  for (const auto& e : general_registry<T>()) {
    if (e.width == width) return &e;
  }
  return nullptr;
}

template <Real T>
const MultiPrecomputedFns<T>* find_multi_precomputed(int width) noexcept {
  for (const auto& e : precomputed_registry<T>()) {
    if (e.width == width) return &e;
  }
  return nullptr;
}

template <Real T>
const MultiUnrolledEntry<T>* find_multi_unrolled(int order, int dim,
                                                 int width) noexcept {
  for (const auto& e : unrolled_multi_registry<T>()) {
    if (e.order == order && e.dim == dim && e.width == width) return &e;
  }
  return nullptr;
}

template const MultiGeneralFns<float>* find_multi_general<float>(int) noexcept;
template const MultiGeneralFns<double>* find_multi_general<double>(
    int) noexcept;
template const MultiPrecomputedFns<float>* find_multi_precomputed<float>(
    int) noexcept;
template const MultiPrecomputedFns<double>* find_multi_precomputed<double>(
    int) noexcept;
template const MultiUnrolledEntry<float>* find_multi_unrolled<float>(
    int, int, int) noexcept;
template const MultiUnrolledEntry<double>* find_multi_unrolled<double>(
    int, int, int) noexcept;

}  // namespace te::kernels
