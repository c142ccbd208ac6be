#pragma once
// Portable fixed-width SIMD shim for the multi-vector kernel tier.
//
// Pack<T, W> is W lanes of T with elementwise arithmetic. On GCC/Clang it
// wraps the vector-extension types (`__attribute__((vector_size)))`), which
// lower to native SSE/AVX/NEON registers under -march=native and to decent
// scalar code elsewhere; on other compilers (or with TE_SIMD_FORCE_SCALAR
// defined) it falls back to a plain array with per-lane loops, so every
// consumer compiles everywhere and the vector path is a pure optimization.
//
// Loads/stores go through __builtin_memcpy (plain memcpy in the fallback):
// unaligned-safe by construction, no strict-aliasing or alignment UB, and
// modern x86 executes them at full speed when the batch storage is aligned.
// AlignedAllocator keeps that storage on 64-byte boundaries (cache line /
// zmm register width) so lane rows never straddle lines.
//
// Numerical contract: every Pack operation is the IEEE operation applied
// lane-wise, in the same source order a scalar loop would use -- the
// multi-vector kernels rely on this to stay bit-identical (or within one
// contraction) to their scalar counterparts per lane.

#include <cmath>
#include <cstddef>
#include <cstring>
#include <new>

#include "te/util/types.hpp"

#if defined(__GNUC__) && !defined(TE_SIMD_FORCE_SCALAR)
#define TE_SIMD_VECTOR_EXT 1
#else
#define TE_SIMD_VECTOR_EXT 0
#endif

namespace te::simd {

/// Alignment of all multi-vector batch storage: one cache line, which is
/// also the widest vector register we target (AVX-512 zmm).
inline constexpr std::size_t kBatchAlignment = 64;

/// Widest vector register (in bytes) the compile target offers. Used only
/// as a width heuristic -- larger Pack widths still compile (the compiler
/// splits them across registers).
inline constexpr int kMaxVectorBytes =
#if defined(__AVX512F__)
    64;
#elif defined(__AVX__)
    32;
#else
    16;
#endif

/// Hardware-preferred lane count for T: one full vector register.
template <Real T>
[[nodiscard]] constexpr int preferred_width() noexcept {
  return kMaxVectorBytes / static_cast<int>(sizeof(T));
}

/// Largest lane width the multi-vector dispatch will instantiate.
inline constexpr int kMaxWidth = 16;

/// W lanes of T with elementwise IEEE arithmetic.
template <Real T, int W>
struct Pack {
  static_assert(W >= 2 && W <= kMaxWidth && (W & (W - 1)) == 0,
                "pack width must be a power of two in [2, kMaxWidth]");

#if TE_SIMD_VECTOR_EXT
  typedef T Native __attribute__((vector_size(W * sizeof(T))));
#else
  struct Native {
    T lane[W];
  };
#endif

  Native v;

  [[nodiscard]] static Pack broadcast(T s) noexcept {
    Pack p;
    for (int i = 0; i < W; ++i) {
#if TE_SIMD_VECTOR_EXT
      p.v[i] = s;
#else
      p.v.lane[i] = s;
#endif
    }
    return p;
  }

  [[nodiscard]] static Pack zero() noexcept { return broadcast(T(0)); }

  /// Load W contiguous lanes; no alignment requirement.
  [[nodiscard]] static Pack load(const T* p) noexcept {
    Pack r;
    __builtin_memcpy(&r.v, p, sizeof(Native));
    return r;
  }

  void store(T* p) const noexcept { __builtin_memcpy(p, &v, sizeof(Native)); }

  [[nodiscard]] T lane(int i) const noexcept {
#if TE_SIMD_VECTOR_EXT
    return v[i];
#else
    return v.lane[i];
#endif
  }

  friend Pack operator+(Pack a, Pack b) noexcept {
#if TE_SIMD_VECTOR_EXT
    a.v = a.v + b.v;
#else
    for (int i = 0; i < W; ++i) a.v.lane[i] = a.v.lane[i] + b.v.lane[i];
#endif
    return a;
  }

  friend Pack operator*(Pack a, Pack b) noexcept {
#if TE_SIMD_VECTOR_EXT
    a.v = a.v * b.v;
#else
    for (int i = 0; i < W; ++i) a.v.lane[i] = a.v.lane[i] * b.v.lane[i];
#endif
    return a;
  }

  friend Pack operator/(Pack a, Pack b) noexcept {
#if TE_SIMD_VECTOR_EXT
    a.v = a.v / b.v;
#else
    for (int i = 0; i < W; ++i) a.v.lane[i] = a.v.lane[i] / b.v.lane[i];
#endif
    return a;
  }

  Pack& operator+=(Pack b) noexcept {
    *this = *this + b;
    return *this;
  }

  Pack& operator*=(Pack b) noexcept {
    *this = *this * b;
    return *this;
  }

  /// Lane-wise conversion (e.g. T accumulator terms widened to double).
  template <Real U>
  [[nodiscard]] Pack<U, W> to() const noexcept {
    Pack<U, W> r;
#if TE_SIMD_VECTOR_EXT
    r.v = __builtin_convertvector(v, typename Pack<U, W>::Native);
#else
    for (int i = 0; i < W; ++i) r.v.lane[i] = static_cast<U>(v.lane[i]);
#endif
    return r;
  }
};

/// Lane-wise square root (correctly rounded per lane, like std::sqrt).
template <Real T, int W>
[[nodiscard]] Pack<T, W> sqrt(Pack<T, W> p) noexcept {
  for (int i = 0; i < W; ++i) {
#if TE_SIMD_VECTOR_EXT
    p.v[i] = std::sqrt(p.v[i]);
#else
    p.v.lane[i] = std::sqrt(p.v.lane[i]);
#endif
  }
  return p;
}

// One source expression over either value kind: V is a scalar T (one
// value, rows of stride 1) or a Pack<T, W> (W lanes, SoA rows of stride
// W). Code written against these helpers gets the same FMA contraction in
// both instantiations, so its per-lane results are the scalar ones bit for
// bit.

/// Values per V: 1 for a scalar, W for a Pack.
template <class V>
inline constexpr std::size_t kLanes = 1;
template <Real T, int W>
inline constexpr std::size_t kLanes<Pack<T, W>> = W;

/// A V holding s in every lane.
template <class V, Real T>
[[nodiscard]] V splat(T s) noexcept {
  if constexpr (kLanes<V> == 1) {
    return s;
  } else {
    return V::broadcast(s);
  }
}

/// v exactly as rounded: the compiler may neither fuse it into a following
/// add (FMA contraction) nor reassociate across it. A no-op where the
/// compiler offers no such barrier.
template <class V>
[[nodiscard]] V rounded(V v) noexcept {
#if defined(__has_builtin)
#if __has_builtin(__builtin_assoc_barrier)
  if constexpr (kLanes<V> == 1) {
    v = __builtin_assoc_barrier(v);
  } else {
#if TE_SIMD_VECTOR_EXT
    v.v = __builtin_assoc_barrier(v.v);
#else
    for (auto& lane : v.v.lane) lane = __builtin_assoc_barrier(lane);
#endif
  }
#endif
#endif
  return v;
}

/// Row load/store at p (kLanes<V> contiguous values).
template <class V, Real T>
[[nodiscard]] V load(const T* p) noexcept {
  if constexpr (kLanes<V> == 1) {
    return *p;
  } else {
    return V::load(p);
  }
}
template <class V, Real T>
void store(V v, T* p) noexcept {
  if constexpr (kLanes<V> == 1) {
    *p = v;
  } else {
    v.store(p);
  }
}

/// Minimal C++17 aligned-new allocator pinning every allocation to
/// kBatchAlignment. Value-initializes nothing beyond what the container
/// requests; stateless, so all instances compare equal.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kBatchAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kBatchAlignment});
  }

  template <typename U>
  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator<U>&) noexcept {
    return true;
  }
};

}  // namespace te::simd
