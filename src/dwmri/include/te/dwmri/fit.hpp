#pragma once
// Least-squares fit of an order-m symmetric tensor to ADC measurements
// (paper Section IV: "at least 15 measurements" determine the 15 unique
// coefficients of an order-4 form in R^3).
//
// Model: ADC(g) ~ A g^m = sum_{classes} mult(class) * a_class * g^mono,
// linear in the packed unique values a_class. Each measurement contributes
// one row of the design matrix; the system is solved by regularized normal
// equations (the small, well-conditioned setting of this application).
// All voxels of an acquisition share one gradient scheme, so each thread
// factors a scheme once and reuses the factor (detail::fit_coefficients).

#include <span>
#include <vector>

#include "te/comb/index_class.hpp"
#include "te/comb/multinomial.hpp"
#include "te/tensor/symmetric_tensor.hpp"
#include "te/util/linalg.hpp"

namespace te::dwmri {

/// One ADC measurement: unit gradient direction and observed coefficient.
struct AdcSample {
  std::array<double, 3> gradient{};
  double adc = 0;
};

/// Design-matrix row for gradient g: entry per index class equals
/// multiplicity * prod_t g[idx_t].
[[nodiscard]] std::vector<double> design_row(int order,
                                             std::span<const double> g);

namespace detail {
/// The double-precision coefficients fit_tensor() converts: the solution of
/// least_squares(design matrix, adc, ridge), bit for bit. Each thread keeps
/// a one-entry memo keyed on the exact order, ridge and gradient bits,
/// holding that scheme's design matrix and the Cholesky factor of its
/// normal equations, so a volume that shares one scheme factors once per
/// thread and pays A^T b plus two triangular solves per voxel. A scheme
/// whose normal equations are not SPD throws and is never memoised. The
/// returned span is the calling thread's scratch, valid until its next call.
[[nodiscard]] std::span<const double> fit_coefficients(
    int order, std::span<const AdcSample> samples, double ridge);
}  // namespace detail

/// Fit the packed unique values of an order-`order` symmetric tensor in R^3
/// from >= num_unique samples. `ridge` regularizes the normal equations.
template <Real T>
[[nodiscard]] SymmetricTensor<T> fit_tensor(int order,
                                            std::span<const AdcSample> samples,
                                            double ridge = 0.0) {
  const int dim = 3;
  const offset_t u = comb::num_unique_entries(order, dim);
  TE_REQUIRE(static_cast<offset_t>(samples.size()) >= u,
             "need at least " << u << " samples to determine an order-"
                              << order << " tensor, got " << samples.size());
  const std::span<const double> coeffs =
      detail::fit_coefficients(order, samples, ridge);
  SymmetricTensor<T> out(order, dim);
  for (offset_t j = 0; j < u; ++j) {
    out.value(j) = static_cast<T>(coeffs[static_cast<std::size_t>(j)]);
  }
  return out;
}

}  // namespace te::dwmri
