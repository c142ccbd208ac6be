#include "te/dwmri/fit.hpp"

#include <bit>
#include <cstdint>
#include <cstring>

namespace te::dwmri {

std::vector<double> design_row(int order, std::span<const double> g) {
  TE_REQUIRE(g.size() == 3, "gradient must be a 3-vector");
  const offset_t u = comb::num_unique_entries(order, 3);
  std::vector<double> row(static_cast<std::size_t>(u));
  for (comb::IndexClassIterator it(order, 3); !it.done(); it.next()) {
    double p = 1.0;
    for (index_t i : it.index()) p *= g[static_cast<std::size_t>(i)];
    row[static_cast<std::size_t>(it.rank())] =
        static_cast<double>(comb::multinomial_from_index(it.index())) * p;
  }
  return row;
}

namespace detail {
namespace {

/// One gradient scheme's fit, factored: the memo of fit_coefficients.
struct SchemeFit {
  int order = -1;  ///< -1: nothing memoised yet
  std::uint64_t ridge_bits = 0;
  std::vector<double> gradients;  ///< 3 per sample; compared as bits
  Matrix<double> design;          ///< samples x unique entries
  Matrix<double> factor;          ///< Cholesky factor of the normal equations

  [[nodiscard]] bool matches(int o, std::span<const AdcSample> samples,
                             double ridge) const {
    if (order != o || ridge_bits != std::bit_cast<std::uint64_t>(ridge) ||
        gradients.size() != 3 * samples.size()) {
      return false;
    }
    for (std::size_t s = 0; s < samples.size(); ++s) {
      if (std::memcmp(&gradients[3 * s], samples[s].gradient.data(),
                      3 * sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  }
};

/// Per-thread state: the memo plus the right-hand-side scratch.
struct FitState {
  SchemeFit memo;
  std::vector<double> adc;
  std::vector<double> coeffs;
};

thread_local FitState state;

}  // namespace

std::span<const double> fit_coefficients(int order,
                                         std::span<const AdcSample> samples,
                                         double ridge) {
  FitState& st = state;
  if (!st.memo.matches(order, samples, ridge)) {
    const offset_t u = comb::num_unique_entries(order, 3);
    SchemeFit fresh;
    fresh.order = order;
    fresh.ridge_bits = std::bit_cast<std::uint64_t>(ridge);
    fresh.gradients.reserve(3 * samples.size());
    fresh.design = Matrix<double>(static_cast<int>(samples.size()),
                                  static_cast<int>(u));
    for (std::size_t s = 0; s < samples.size(); ++s) {
      const auto& g = samples[s].gradient;
      fresh.gradients.insert(fresh.gradients.end(), g.begin(), g.end());
      const auto row = design_row(order, std::span<const double>(g.data(), 3));
      for (offset_t j = 0; j < u; ++j) {
        fresh.design(static_cast<int>(s), static_cast<int>(j)) =
            row[static_cast<std::size_t>(j)];
      }
    }
    TE_REQUIRE(normal_factor(fresh.design, ridge, fresh.factor),
               "normal equations not SPD; increase ridge or add rows");
    st.memo = std::move(fresh);
  }
  st.adc.resize(samples.size());
  for (std::size_t s = 0; s < samples.size(); ++s) st.adc[s] = samples[s].adc;
  st.coeffs.resize(static_cast<std::size_t>(st.memo.design.cols()));
  const std::span<double> coeffs(st.coeffs);
  normal_rhs(st.memo.design, std::span<const double>(st.adc), coeffs);
  cholesky_solve(st.memo.factor, coeffs);
  return coeffs;
}

}  // namespace detail
}  // namespace te::dwmri
