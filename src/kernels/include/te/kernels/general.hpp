#pragma once
// General-tier symmetric tensor-vector kernels (paper Section III-B,
// Figures 2-4): work for any order m and dimension n, computing index
// representations and multinomial coefficients on the fly while sweeping
// the packed unique values once in lexicographic order.
//
// Naming: ttsvP computes A x^{m-p} ("tensor times same vector" in all modes
// but p), per Definition 2 of the paper:
//   ttsv0 -> scalar  A x^m      (Eq. 4, Fig. 2)
//   ttsv1 -> vector  A x^{m-1}  (Eq. 6, Fig. 3)
//   ttsv2 -> matrix  A x^{m-2}  (the same construction one step further; not
//            in the paper's pseudocode but needed for classifying eigenpairs
//            as maxima/minima/saddles via the projected Hessian)
//
// Every kernel optionally tallies its operation mix into an OpCounts for the
// instruction-accounting performance models; pass nullptr (the default) for
// the uninstrumented fast path.

#include <algorithm>
#include <span>
#include <vector>

#include "te/comb/index_class.hpp"
#include "te/comb/multinomial.hpp"
#include "te/tensor/symmetric_tensor.hpp"
#include "te/util/linalg.hpp"
#include "te/util/op_counter.hpp"

namespace te::kernels {

/// Exact operation mix of one general-tier ttsv0 call on an [order, dim]
/// tensor. The count is data-independent, so the kernel tallies it in one
/// step, and a caller that runs the same arithmetic another way (the start
/// sweep's SIMD lanes) can charge each lane what the scalar call costs.
/// Per class: the m-1 product multiplies, c*A and *xhat, one add, and
/// about 3 integer ops per index entry (index update + multinomial pass).
[[nodiscard]] inline OpCounts ttsv0_general_ops(int order, int dim) {
  const std::int64_t u = comb::num_unique_entries(order, dim);
  OpCounts c;
  c.fmul = u * (order + 1);
  c.fadd = u;
  c.iop = u * 3 * order;
  return c;
}

/// Exact operation mix of one general-tier ttsv1 call. Per class: the
/// prefix and suffix products (2m multiplies) and ~3m integer ops; per
/// (class, distinct index) pair -- dim * C(dim + order - 2, order - 1) of
/// them -- the xhat join, sigma*A and *xhat, one add, and the MULTINOMIAL1
/// pass plus loop bookkeeping (m + 2 integer ops).
[[nodiscard]] inline OpCounts ttsv1_general_ops(int order, int dim) {
  const std::int64_t u = comb::num_unique_entries(order, dim);
  const std::int64_t s = dim * comb::binomial(dim + order - 2, order - 1);
  OpCounts c;
  c.fmul = 3 * s + 2 * order * u;
  c.fadd = s;
  c.iop = (order + 2) * s + 3 * order * u;
  return c;
}

/// Raw-pointer core of ttsv0: `values` is the packed unique-value array of
/// a symmetric [order, dim] tensor (lexicographic class order). The GPU
/// simulator calls this form directly on shared-memory arrays.
template <Real T>
[[nodiscard]] T ttsv0_general_raw(int order, int dim, const T* values,
                                  std::span<const T> x,
                                  OpCounts* ops = nullptr) noexcept {
  const int m = order;
  double y = 0;  // accumulate in double: the sum has ~n^m/m! terms
  for (comb::IndexClassIterator it(m, dim); !it.done(); it.next()) {
    const auto idx = it.index();
    T xhat = x[static_cast<std::size_t>(idx[0])];
    for (int t = 1; t < m; ++t) {
      xhat *= x[static_cast<std::size_t>(idx[t])];
    }
    const auto c = comb::multinomial_from_index(idx);
    y += static_cast<double>(static_cast<T>(c) *
                             values[static_cast<std::size_t>(it.rank())] *
                             xhat);
  }
  if (ops) *ops += ttsv0_general_ops(order, dim);
  return static_cast<T>(y);
}

/// Scalar A x^m by Eq. 4: one multinomial-weighted product term per unique
/// value. O(m) work per class including the index update, so
/// O(m * n^m / m!) total (Table II).
template <Real T>
[[nodiscard]] T ttsv0_general(const SymmetricTensor<T>& a,
                              std::span<const T> x,
                              OpCounts* ops = nullptr) {
  TE_REQUIRE(static_cast<int>(x.size()) == a.dim(),
             "vector length must equal tensor dimension");
  return ttsv0_general_raw(a.order(), a.dim(), a.values().data(), x, ops);
}

/// Vector y = A x^{m-1} by Eq. 6. For each class, every *distinct* index i
/// in its index representation receives a contribution with coefficient
/// sigma(i) (Fig. 3). The skip-one products are formed with prefix/suffix
/// products, so each class costs O(m) rather than O(m^2).
template <Real T>
void ttsv1_general_raw(int order, int dim, const T* values,
                       std::span<const T> x, std::span<T> y,
                       OpCounts* ops = nullptr) {
  const int m = order;

  // Accumulate in double for the same reason as ttsv0. Paper-scale dims fit
  // the stack accumulator; large n (dim > 64) falls back to a heap
  // accumulator instead of hitting a capacity wall.
  constexpr int kMaxOrder = comb::kMaxFactorialArg;
  TE_REQUIRE(m <= kMaxOrder, "order too large for exact multinomials");
  double acc_stack[64] = {};
  std::vector<double> acc_heap;
  double* acc = acc_stack;
  if (dim > 64) {
    acc_heap.assign(static_cast<std::size_t>(dim), 0.0);
    acc = acc_heap.data();
  }

  // Scratch for prefix/suffix products of x over the current class.
  T pre[kMaxOrder + 1];
  T suf[kMaxOrder + 1];

  for (comb::IndexClassIterator it(m, dim); !it.done(); it.next()) {
    const auto idx = it.index();
    pre[0] = T(1);
    for (int t = 0; t < m; ++t) {
      pre[t + 1] = pre[t] * x[static_cast<std::size_t>(idx[t])];
    }
    suf[m] = T(1);
    for (int t = m - 1; t >= 0; --t) {
      suf[t] = suf[t + 1] * x[static_cast<std::size_t>(idx[t])];
    }
    const T av = values[static_cast<std::size_t>(it.rank())];

    // Walk distinct indices; first occurrence position gives the skip-one
    // product pre[t] * suf[t+1].
    for (int t = 0; t < m;) {
      const index_t i = idx[t];
      const auto sigma = comb::multinomial_drop_one(idx, i);
      const T xhat = pre[t] * suf[t + 1];
      acc[static_cast<std::size_t>(i)] +=
          static_cast<double>(static_cast<T>(sigma) * av * xhat);
      while (t < m && idx[t] == i) ++t;  // skip repeats of i
    }
  }
  if (ops) *ops += ttsv1_general_ops(order, dim);
  for (int i = 0; i < dim; ++i) {
    y[static_cast<std::size_t>(i)] = static_cast<T>(acc[static_cast<std::size_t>(i)]);
  }
}

/// Vector y = A x^{m-1} on a SymmetricTensor (wrapper over the raw core).
template <Real T>
void ttsv1_general(const SymmetricTensor<T>& a, std::span<const T> x,
                   std::span<T> y, OpCounts* ops = nullptr) {
  TE_REQUIRE(static_cast<int>(x.size()) == a.dim() &&
                 static_cast<int>(y.size()) == a.dim(),
             "vector length must equal tensor dimension");
  ttsv1_general_raw(a.order(), a.dim(), a.values().data(), x, y, ops);
}

/// Matrix B = A x^{m-2} (symmetric, n x n). Entry (i, j) receives, from each
/// index class containing both i and j (with multiplicity 2 if i == j), the
/// value sigma(i,j) * a_class * prod x^{k - e_i - e_j}, where sigma(i,j) is
/// the multinomial count of tensor indices in the class whose first two
/// positions are (i, j). Used to form the projected Hessian
/// m (m-1) A x^{m-2} for eigenpair classification. Requires m >= 2.
template <Real T>
[[nodiscard]] Matrix<T> ttsv2_general(const SymmetricTensor<T>& a,
                                      std::span<const T> x,
                                      OpCounts* ops = nullptr) {
  TE_REQUIRE(static_cast<int>(x.size()) == a.dim(),
             "vector length must equal tensor dimension");
  TE_REQUIRE(a.order() >= 2, "ttsv2 needs order >= 2");
  const int m = a.order();
  const int n = a.dim();
  Matrix<double> acc(n, n);

  // Monomial of the class and the per-(i, j) reduced monomial: stack
  // scratch at paper-scale dims, one heap block for the large-n regime.
  constexpr int kStackDim = 64;
  index_t stack[2 * kStackDim];
  std::vector<index_t> heap;
  index_t* mono = stack;
  if (n > kStackDim) {
    heap.resize(2 * static_cast<std::size_t>(n));
    mono = heap.data();
  }
  index_t* k = mono + n;
  for (comb::IndexClassIterator it(m, n); !it.done(); it.next()) {
    const auto idx = it.index();
    std::fill(mono, mono + n, index_t{0});
    for (int t = 0; t < m; ++t) ++mono[idx[t]];
    const double av =
        static_cast<double>(a.value(it.rank()));

    // Distinct indices present in this class.
    for (int ti = 0; ti < m;) {
      const index_t i = idx[ti];
      int tj = ti;
      for (; tj < m;) {
        const index_t j = idx[tj];
        // sigma(i, j): multinomial of the class with one occurrence of i and
        // one of j removed; requires k_i (and k_j) large enough.
        std::copy(mono, mono + n, k);
        k[i] -= 1;
        k[j] -= 1;
        bool feasible = true;
        double xpow = 1.0;
        for (int q = 0; q < n; ++q) {
          if (k[q] < 0) {
            feasible = false;
            break;
          }
          for (index_t r = 0; r < k[q]; ++r) {
            xpow *= static_cast<double>(x[static_cast<std::size_t>(q)]);
          }
        }
        if (feasible) {
          const auto sigma = comb::multinomial_from_monomial(
              {k, static_cast<std::size_t>(n)});
          const double contrib = static_cast<double>(sigma) * av * xpow;
          acc(i, j) += contrib;
          if (i != j) acc(j, i) += contrib;
          if (ops) {
            ops->fmul += m;  // xpow product + weighting
            ops->fadd += (i != j) ? 2 : 1;
            ops->iop += 2 * n + m;
          }
        }
        // Advance past repeats of j.
        const index_t jj = idx[tj];
        while (tj < m && idx[tj] == jj) ++tj;
      }
      const index_t ii = idx[ti];
      while (ti < m && idx[ti] == ii) ++ti;
    }
  }

  Matrix<T> out(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) out(i, j) = static_cast<T>(acc(i, j));
  return out;
}

}  // namespace te::kernels
