#pragma once
// Shared scalar/index typedefs and concepts.

#include <concepts>
#include <cstdint>

namespace te {

/// Index of a single tensor mode entry, 0-based in code (the paper uses
/// 1-based indices in its exposition; all public APIs here are 0-based).
using index_t = std::int32_t;

/// Linear offset into the packed unique-value array of a symmetric tensor.
/// 64-bit: binom(n+m-1, m) overflows 32 bits already for moderate (m, n).
using offset_t = std::int64_t;

/// Scalar types accepted by the numeric kernels.
template <typename T>
concept Real = std::floating_point<T>;

}  // namespace te
