#pragma once
// Index classes of a symmetric tensor (paper Section III-A).
//
// A *tensor index* is an array of m indices addressing one entry of an
// order-m tensor. Symmetry partitions tensor indices into *index classes*
// whose entries share a value. Each class has two canonical encodings:
//
//   index representation    -- the nondecreasing tensor index
//                              (m integers in [0, n)),
//   monomial representation -- occurrence counts per index
//                              (n integers summing to m).
//
// The unique values of a symmetric tensor are stored in lexicographic order
// of index representations (equivalently, reverse lexicographic order of
// monomial representations); see the paper's Table I. This header provides:
//
//   * IndexClassIterator    -- successor iteration (paper Fig. 4,
//                              UPDATEINDEX), O(m) per step;
//   * index_class_rank      -- lexicographic rank of a class, i.e. the
//                              linear storage offset of its unique value;
//   * index_class_unrank    -- the inverse;
//   * conversions between the two representations.
//
// All indices are 0-based (the paper's exposition is 1-based).

#include <array>
#include <span>
#include <vector>

#include "te/comb/multinomial.hpp"
#include "te/util/assert.hpp"
#include "te/util/types.hpp"

namespace te::comb {

/// Convert an index representation (nondecreasing, values in [0, n)) to the
/// monomial representation (length n, occurrence counts).
[[nodiscard]] std::vector<index_t> index_to_monomial(
    std::span<const index_t> index_rep, int dim);

/// Convert a monomial representation to the index representation.
[[nodiscard]] std::vector<index_t> monomial_to_index(
    std::span<const index_t> monomial);

/// True iff `index_rep` is a valid index representation for dimension n:
/// nondecreasing with all values in [0, n).
[[nodiscard]] bool is_index_rep(std::span<const index_t> index_rep, int dim);

/// Number of nondecreasing sequences of length `len` over values
/// [lo, dim): C((dim - lo) + len - 1, len). The counting primitive behind
/// rank/unrank.
[[nodiscard]] inline std::int64_t count_suffixes(int len, index_t lo,
                                                 int dim) {
  return binomial((dim - lo) + len - 1, len);
}

/// Capacity precheck for the [order, dim] shape: true iff every offset the
/// rank/unrank arithmetic can produce -- the class count C(dim+order-1,
/// order), every count_suffixes() block, and every partial sum of blocks
/// (all bounded by the class count) -- is exactly representable in the
/// 64-bit offset_t, including the intermediates of the multiplicative
/// binomial formula. Without this check, index_class_rank's running sum can
/// silently wrap int64 mid-computation at large (order, dim) *before* any
/// individual binomial() guard fires: the per-suffix blocks each fit while
/// their sum does not (first seen at order=6, dim=10^4). Never throws;
/// callers that need storage (SymmetricTensor, KernelTables) TE_REQUIRE
/// it at construction with a shape-level error instead of surfacing a generic binomial overflow from deep inside rank().
[[nodiscard]] inline bool shape_fits_offset(int order, int dim) {
  if (order < 1 || dim < 1 || order > kMaxFactorialArg) return false;
  // count_suffixes(len, lo, dim) is maximal at lo = 0 and shrinks with lo,
  // as do the intermediates of its multiplicative formula, so checking the
  // lo = 0 column for every suffix length covers every block rank/unrank
  // evaluates. Partial sums are bounded by the total class count (len ==
  // order), which is checked as part of the same sweep.
  for (int len = 1; len <= order; ++len) {
    if (!checked_binomial(dim + len - 1, len).has_value()) return false;
  }
  return true;
}

/// Lexicographic rank (0-based) of an index class among all classes of
/// shape [m, n], m = index_rep.size(). This is the storage offset of the
/// class's unique value in a SymmetricTensor. O(m * n).
[[nodiscard]] offset_t index_class_rank(std::span<const index_t> index_rep,
                                        int dim);

/// Inverse of index_class_rank: the index representation of the class at
/// `rank`. O(m * n).
[[nodiscard]] std::vector<index_t> index_class_unrank(offset_t rank, int order,
                                                      int dim);

/// Iterates the index classes of shape [m, n] in lexicographic order,
/// maintaining the index representation incrementally (paper Fig. 4).
///
///   for (IndexClassIterator it(m, n); !it.done(); it.next()) {
///     use(it.index());       // nondecreasing span of m indices
///   }
///
/// next() is O(m); a full sweep over all C(m+n-1, m) classes therefore
/// costs O(m) amortized per class, which is what makes the on-the-fly
/// kernel tier (Figs. 2-3) viable.
class IndexClassIterator {
 public:
  IndexClassIterator(int order, int dim);

  /// Current index representation (valid while !done()).
  [[nodiscard]] std::span<const index_t> index() const {
    return {index_.data(), static_cast<std::size_t>(order_)};
  }

  /// Rank of the current class == number of next() calls so far.
  [[nodiscard]] offset_t rank() const { return rank_; }

  [[nodiscard]] bool done() const { return done_; }

  /// Advance to the successor class (paper Fig. 4, UPDATEINDEX): increment
  /// the least significant index that is not n-1 and reset everything after
  /// it to the new value.
  void next();

  /// Restart at the first class [0, 0, ..., 0].
  void reset();

  [[nodiscard]] int order() const { return order_; }
  [[nodiscard]] int dim() const { return dim_; }

 private:
  int order_;
  int dim_;
  // Inline storage: the iterator sits on the hot path of the general-tier
  // kernels (one per ttsv call), so it must not allocate. kMaxFactorialArg
  // already caps the order at 20.
  std::array<index_t, kMaxFactorialArg> index_{};
  offset_t rank_ = 0;
  bool done_ = false;
};

/// Materialize the full table of index representations in lexicographic
/// order, flattened row-major: entry (r, j) at r * order + j. This is the
/// precomputed index table the paper shares across all threads
/// (Section V-C). Size: num_unique_entries(order, dim) * order.
[[nodiscard]] std::vector<index_t> all_index_classes(int order, int dim);

}  // namespace te::comb
