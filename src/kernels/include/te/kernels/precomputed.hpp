#pragma once
// Precomputed-tier kernels (paper Sections III-B.5 and V-C).
//
// The general tier recomputes the index representation and the multinomial
// coefficient of every class on every kernel call. When many tensors share
// one shape -- millions of (m=4, n=3) voxels in the DW-MRI application --
// that integer work can be hoisted into tables built once per shape and
// shared by *all* tensors and all threads:
//
//   * the index table (U x m integers, Fig. 2's I arrays),
//   * the Eq. 4 coefficients C(m; k_1..k_n), one per class,
//   * the Eq. 6 contribution list: for every (class, distinct index) pair,
//     the output index, sigma coefficient, and skip position.
//
// The paper notes this raises storage by a factor of about (m + 2) in
// exchange for removing nearly all integer work from the flop stream; the
// ablation bench (bench_ablation_precompute) measures exactly that trade.

#include <cstdint>
#include <span>
#include <vector>

#include "te/comb/index_class.hpp"
#include "te/comb/multinomial.hpp"
#include "te/obs/obs.hpp"
#include "te/tensor/symmetric_tensor.hpp"
#include "te/util/op_counter.hpp"

namespace te::kernels {

/// Shape-specific lookup tables shared across all tensors of one (m, n).
template <Real T>
class KernelTables {
 public:
  /// One Eq. 6 contribution: class `cls` adds
  /// sigma * a[cls] * prod_{t != skip_pos} x[idx_t] to y[out_index].
  struct Contribution {
    offset_t cls;
    index_t out_index;
    index_t skip_pos;  ///< first occurrence of out_index within the class
    T sigma;
  };

  KernelTables(int order, int dim)
      : order_(order),
        dim_(dim),
        num_classes_(comb::num_unique_entries(order, dim)) {
    build();
  }

  /// Rehydrate tables from serialized arrays (te::io warm-start path): no
  /// combinatorial rebuild happens. The arrays come from a file, so every
  /// entry the kernels use as an array index is range-checked here: index
  /// entries and out_index against dim, cls against num_classes, skip_pos
  /// against order. A CRC-valid but wrong table throws instead of letting
  /// ttsv1_precomputed read or write out of bounds.
  KernelTables(int order, int dim, std::vector<index_t> index_table,
               std::vector<T> coeff0, std::vector<Contribution> contribs)
      : order_(order),
        dim_(dim),
        num_classes_(comb::num_unique_entries(order, dim)),
        index_table_(std::move(index_table)),
        coeff0_(std::move(coeff0)),
        contribs_(std::move(contribs)) {
    check_tables();
  }

  [[nodiscard]] int order() const { return order_; }
  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] offset_t num_classes() const { return num_classes_; }

  /// The full U x m index table, row-major (serialization + GPU upload).
  [[nodiscard]] std::span<const index_t> index_table() const {
    return index_table_;
  }

  /// All Eq. 4 coefficients, one per class (serialization + GPU upload).
  [[nodiscard]] std::span<const T> coeff0_table() const { return coeff0_; }

  /// Index representation of class r: row r of the U x m table.
  [[nodiscard]] std::span<const index_t> class_index(offset_t r) const {
    return index_table().subspan(
        static_cast<std::size_t>(r) * static_cast<std::size_t>(order_),
        static_cast<std::size_t>(order_));
  }

  /// Eq. 4 coefficient of class r, already converted to the scalar type.
  [[nodiscard]] T coeff0(offset_t r) const {
    return coeff0_table()[static_cast<std::size_t>(r)];
  }

  /// All Eq. 6 contributions, grouped by class (ascending cls).
  [[nodiscard]] std::span<const Contribution> contributions() const {
    return contribs_;
  }

  /// Bytes of table storage (the "(m + 2) x" overhead the paper quotes).
  [[nodiscard]] std::size_t table_bytes() const {
    return index_table().size() * sizeof(index_t) +
           coeff0_table().size() * sizeof(T) +
           contributions().size() * sizeof(Contribution);
  }

 private:
  void check_tables() const {
    TE_REQUIRE(index_table_.size() == static_cast<std::size_t>(num_classes_) *
                                          static_cast<std::size_t>(order_),
               "index table size mismatch for (" << order_ << ", " << dim_
                                                 << ")");
    TE_REQUIRE(coeff0_.size() == static_cast<std::size_t>(num_classes_),
               "coefficient table size mismatch for (" << order_ << ", "
                                                       << dim_ << ")");
    for (const index_t i : index_table_) {
      TE_REQUIRE(i >= 0 && i < dim_, "index table entry " << i
                                         << " out of range for dim " << dim_);
    }
    for (const Contribution& c : contribs_) {
      TE_REQUIRE(c.cls >= 0 && c.cls < num_classes_,
                 "contribution class " << c.cls << " out of range ("
                                       << num_classes_ << " classes)");
      TE_REQUIRE(c.out_index >= 0 && c.out_index < dim_,
                 "contribution out_index " << c.out_index
                                           << " out of range for dim "
                                           << dim_);
      TE_REQUIRE(c.skip_pos >= 0 && c.skip_pos < order_,
                 "contribution skip_pos " << c.skip_pos
                                          << " out of range for order "
                                          << order_);
    }
  }

  void build() {
    TE_OBS_ONLY(obs::global().counter("kernels.tables.built").inc());
    index_table_.reserve(static_cast<std::size_t>(num_classes_) * order_);
    coeff0_.reserve(static_cast<std::size_t>(num_classes_));
    for (comb::IndexClassIterator it(order_, dim_); !it.done(); it.next()) {
      const auto idx = it.index();
      index_table_.insert(index_table_.end(), idx.begin(), idx.end());
      coeff0_.push_back(static_cast<T>(comb::multinomial_from_index(idx)));
      for (int t = 0; t < order_;) {
        const index_t i = idx[t];
        contribs_.push_back(
            {it.rank(), i, static_cast<index_t>(t),
             static_cast<T>(comb::multinomial_drop_one(idx, i))});
        while (t < order_ && idx[t] == i) ++t;
      }
    }
  }

  int order_;
  int dim_;
  offset_t num_classes_;
  std::vector<index_t> index_table_;
  std::vector<T> coeff0_;
  std::vector<Contribution> contribs_;
};

/// Exact operation mix of one precomputed-tier ttsv0 call (per class: the
/// m-1 product multiplies, c*A and *xhat, one add, one bookkeeping op).
/// Data-independent, like the general tier's (ttsv0_general_ops).
template <Real T>
[[nodiscard]] OpCounts ttsv0_precomputed_ops(const KernelTables<T>& tab) {
  const std::int64_t u = tab.num_classes();
  OpCounts c;
  c.fmul = u * (tab.order() + 1);
  c.fadd = u;
  c.iop = u;
  return c;
}

/// Exact operation mix of one precomputed-tier ttsv1 call (per
/// contribution: m + 1 multiplies, one add, two integer ops).
template <Real T>
[[nodiscard]] OpCounts ttsv1_precomputed_ops(const KernelTables<T>& tab) {
  const auto s = static_cast<std::int64_t>(tab.contributions().size());
  OpCounts c;
  c.fmul = s * (tab.order() + 1);
  c.fadd = s;
  c.iop = s * 2;
  return c;
}

/// A x^m with precomputed tables: the loop body is pure floating point --
/// load value, load m indices, multiply, accumulate.
template <Real T>
[[nodiscard]] T ttsv0_precomputed(const SymmetricTensor<T>& a,
                                  const KernelTables<T>& tab,
                                  std::span<const T> x,
                                  OpCounts* ops = nullptr) {
  TE_REQUIRE(a.order() == tab.order() && a.dim() == tab.dim(),
             "tensor shape does not match tables");
  TE_REQUIRE(static_cast<int>(x.size()) == a.dim(), "vector length mismatch");
  const int m = a.order();
  const auto vals = a.values();
  double y = 0;
  for (offset_t r = 0; r < tab.num_classes(); ++r) {
    const auto idx = tab.class_index(r);
    T xhat = x[static_cast<std::size_t>(idx[0])];
    for (int t = 1; t < m; ++t) xhat *= x[static_cast<std::size_t>(idx[t])];
    y += static_cast<double>(tab.coeff0(r) *
                             vals[static_cast<std::size_t>(r)] * xhat);
  }
  if (ops) *ops += ttsv0_precomputed_ops(tab);
  return static_cast<T>(y);
}

/// y = A x^{m-1} with precomputed contribution list.
template <Real T>
void ttsv1_precomputed(const SymmetricTensor<T>& a, const KernelTables<T>& tab,
                       std::span<const T> x, std::span<T> y,
                       OpCounts* ops = nullptr) {
  TE_REQUIRE(a.order() == tab.order() && a.dim() == tab.dim(),
             "tensor shape does not match tables");
  TE_REQUIRE(static_cast<int>(x.size()) == a.dim() &&
                 static_cast<int>(y.size()) == a.dim(),
             "vector length mismatch");
  const int m = a.order();
  const auto vals = a.values();
  // Stack accumulator for paper-scale dims, heap fallback for large n --
  // same capacity fix as ttsv1_general_raw.
  double acc_stack[64] = {};
  std::vector<double> acc_heap;
  double* acc = acc_stack;
  if (a.dim() > 64) {
    acc_heap.assign(static_cast<std::size_t>(a.dim()), 0.0);
    acc = acc_heap.data();
  }

  for (const auto& c : tab.contributions()) {
    const auto idx = tab.class_index(c.cls);
    T xhat = T(1);
    for (int t = 0; t < m; ++t) {
      if (t != c.skip_pos) xhat *= x[static_cast<std::size_t>(idx[t])];
    }
    acc[static_cast<std::size_t>(c.out_index)] += static_cast<double>(
        c.sigma * vals[static_cast<std::size_t>(c.cls)] * xhat);
  }
  for (int i = 0; i < a.dim(); ++i) {
    y[static_cast<std::size_t>(i)] =
        static_cast<T>(acc[static_cast<std::size_t>(i)]);
  }
  if (ops) *ops += ttsv1_precomputed_ops(tab);
}

}  // namespace te::kernels
