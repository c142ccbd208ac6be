#pragma once
// Compressed storage for symmetric tensors (paper Section III-A).
//
// A symmetric tensor A in R^[m,n] has n^m entries but only
// C(m + n - 1, m) ~ n^m / m! distinct values (paper Property 1). This class
// stores exactly one value per index class, in lexicographic order of index
// representations, with no stored index metadata: the offset of an arbitrary
// tensor index is recovered by sorting it (O(m log m)) and ranking the
// resulting index representation (O(m n)).
//
// The packed value array is exposed read-only via values(); the numeric
// kernels (te/kernels) operate directly on that array plus the iteration
// machinery of te/comb, exactly as the paper's Figures 2-3 do.

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "te/comb/index_class.hpp"
#include "te/comb/multinomial.hpp"
#include "te/util/assert.hpp"
#include "te/util/types.hpp"

namespace te {

/// Capacity gate shared by every packed-symmetric container: the number of
/// unique values for [order, dim] -- after proving via shape_fits_offset
/// that *all* rank/unrank arithmetic for the shape is exact in 64 bits.
/// Without the precheck, index_class_rank's running sum silently wraps
/// int64 for large shapes (e.g. order=6, dim=10^4) before any binomial
/// guard fires; here the failure becomes a clear shape-level error at
/// construction.
[[nodiscard]] inline offset_t checked_unique_count(int order, int dim) {
  TE_REQUIRE(order >= 1 && dim >= 1, "order and dim must be positive");
  TE_REQUIRE(comb::shape_fits_offset(order, dim),
             "symmetric tensor shape [order=" << order << ", dim=" << dim
                 << "] exceeds 64-bit offset capacity (index-class rank "
                    "arithmetic would overflow); reduce order or dim");
  return comb::num_unique_entries(order, dim);
}

/// Symmetric order-m, dimension-n tensor in packed unique-value storage.
template <Real T>
class SymmetricTensor {
 public:
  /// Zero tensor of the given shape.
  SymmetricTensor(int order, int dim)
      : order_(order),
        dim_(dim),
        values_(static_cast<std::size_t>(checked_unique_count(order, dim)),
                T(0)) {}

  /// Wrap existing packed values (must be in lexicographic class order and
  /// have length num_unique_entries(order, dim)).
  SymmetricTensor(int order, int dim, std::vector<T> packed_values)
      : order_(order), dim_(dim), values_(std::move(packed_values)) {
    TE_REQUIRE(static_cast<offset_t>(values_.size()) ==
                   checked_unique_count(order, dim),
               "packed value count mismatch: got "
                   << values_.size() << ", expected "
                   << comb::num_unique_entries(order, dim));
  }

  [[nodiscard]] int order() const { return order_; }
  [[nodiscard]] int dim() const { return dim_; }

  /// Number of stored (unique) values: C(m + n - 1, m).
  [[nodiscard]] offset_t num_unique() const {
    return static_cast<offset_t>(values().size());
  }

  /// Number of entries the equivalent dense tensor would hold: n^m.
  [[nodiscard]] offset_t num_dense() const {
    offset_t d = 1;
    for (int i = 0; i < order_; ++i) d *= dim_;
    return d;
  }

  /// Packed unique values in lexicographic index-class order.
  [[nodiscard]] std::span<const T> values() const { return values_; }
  [[nodiscard]] std::span<T> values() { return values_; }

  /// Value by storage offset (== index-class rank).
  [[nodiscard]] T value(offset_t off) const {
    TE_ASSERT(off >= 0 && off < num_unique());
    return values()[static_cast<std::size_t>(off)];
  }
  T& value(offset_t off) {
    TE_ASSERT(off >= 0 && off < num_unique());
    return values_[static_cast<std::size_t>(off)];
  }

  /// Storage offset of an arbitrary (not necessarily sorted) tensor index.
  [[nodiscard]] offset_t offset_of(std::span<const index_t> tensor_index) const {
    TE_REQUIRE(static_cast<int>(tensor_index.size()) == order_,
               "tensor index must have exactly " << order_ << " entries");
    std::vector<index_t> sorted(tensor_index.begin(), tensor_index.end());
    std::sort(sorted.begin(), sorted.end());
    return comb::index_class_rank({sorted.data(), sorted.size()}, dim_);
  }

  /// Entry by arbitrary tensor index (any permutation of an index class maps
  /// to the same stored value -- that is the definition of symmetry).
  [[nodiscard]] T operator()(std::span<const index_t> tensor_index) const {
    return values()[static_cast<std::size_t>(offset_of(tensor_index))];
  }
  T& operator()(std::span<const index_t> tensor_index) {
    return values_[static_cast<std::size_t>(offset_of(tensor_index))];
  }

  /// Convenience accessor from an initializer list: a({0, 1, 1}).
  [[nodiscard]] T operator()(std::initializer_list<index_t> idx) const {
    std::vector<index_t> v(idx);
    return (*this)(std::span<const index_t>(v.data(), v.size()));
  }
  T& operator()(std::initializer_list<index_t> idx) {
    std::vector<index_t> v(idx);
    return (*this)(std::span<const index_t>(v.data(), v.size()));
  }

  /// Frobenius norm computed over the *full* (implicit dense) tensor: each
  /// unique value is weighted by its index-class size (Property 2).
  [[nodiscard]] T frobenius_norm() const {
    const auto vals = values();
    double s = 0;
    for (comb::IndexClassIterator it(order_, dim_); !it.done(); it.next()) {
      const double v =
          static_cast<double>(vals[static_cast<std::size_t>(it.rank())]);
      s += static_cast<double>(comb::multinomial_from_index(it.index())) * v *
           v;
    }
    return static_cast<T>(std::sqrt(s));
  }

  /// Elementwise in-place scale.
  void scale(T a) {
    for (auto& v : values_) v *= a;
  }

  /// this += a * other (same shape required).
  void add_scaled(const SymmetricTensor& other, T a) {
    TE_REQUIRE(order_ == other.order_ && dim_ == other.dim_,
               "shape mismatch in add_scaled");
    const auto ov = other.values();
    for (std::size_t i = 0; i < values_.size(); ++i)
      values_[i] += a * ov[i];
  }

  /// Value equality over shape and packed contents.
  friend bool operator==(const SymmetricTensor& a,
                         const SymmetricTensor& b) = default;

 private:
  int order_;
  int dim_;
  std::vector<T> values_;
};

}  // namespace te
