#include "te/analysis/extract.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "te/comb/multinomial.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/tensor/symmetric_tensor.hpp"
#include "te/util/assert.hpp"

namespace te::analysis {

namespace {

/// Exact log2 of a probe ratio: the integer e with ratio == 2^e, or nullopt
/// when the ratio is not a clean power of two (the kernel's contribution is
/// not a single monomial). Probe values are exact small-integer multiples
/// of powers of two, so `mant == 0.5` is a legitimate exact comparison.
std::optional<int> exact_log2(double ratio) {
  if (!(ratio > 0) || !std::isfinite(ratio)) return std::nullopt;
  int e = 0;
  const double mant = std::frexp(ratio, &e);
  if (mant != 0.5) return std::nullopt;
  return e - 1;
}

/// Build the term for one (class, output) from its probe values, or none
/// when the kernel assigns the class no contribution there. `base` is the
/// all-ones evaluation; `probes[q]` the x_q = 2 one.
std::optional<Term> make_term(offset_t cls, index_t out, double base,
                              std::span<const double> probes) {
  if (base == 0) return std::nullopt;
  Term t;
  t.cls = cls;
  t.out_index = out;
  t.coeff = base;
  t.exponents.reserve(probes.size());
  for (const double p : probes) {
    const auto e = exact_log2(p / base);
    t.exponents.push_back(
        e.has_value() && *e >= 0 ? static_cast<index_t>(*e) : kBadExponent);
  }
  return t;
}

}  // namespace

AccessPlan extract_plan(const ProbeKernel& k) {
  TE_REQUIRE(k.order >= 1 && k.dim >= 1 && k.ttsv0 && k.ttsv1,
             "probe kernel must be fully bound");
  const int n = k.dim;
  const auto u =
      static_cast<std::size_t>(comb::num_unique_entries(k.order, n));

  AccessPlan plan;
  plan.order = k.order;
  plan.dim = n;
  plan.tier = k.tier;

  std::vector<double> values(u, 0.0);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  // probe0[q] / probe1[q * n + i]: evaluations with x_q = 2. Slot n holds
  // the all-ones base evaluation.
  std::vector<double> probe0(static_cast<std::size_t>(n) + 1, 0.0);
  std::vector<double> probe1((static_cast<std::size_t>(n) + 1) *
                                 static_cast<std::size_t>(n),
                             0.0);

  for (std::size_t r = 0; r < u; ++r) {
    values[r] = 1.0;
    for (int q = 0; q <= n; ++q) {
      if (q < n) x[static_cast<std::size_t>(q)] = 2.0;
      probe0[static_cast<std::size_t>(q)] = k.ttsv0(values, x);
      k.ttsv1(values, x, y);
      for (int i = 0; i < n; ++i) {
        probe1[static_cast<std::size_t>(q) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(i)] = y[static_cast<std::size_t>(i)];
      }
      if (q < n) x[static_cast<std::size_t>(q)] = 1.0;
    }
    values[r] = 0.0;

    const auto cls = static_cast<offset_t>(r);
    if (auto t = make_term(cls, 0, probe0[static_cast<std::size_t>(n)],
                           {probe0.data(), static_cast<std::size_t>(n)})) {
      plan.ttsv0.push_back(std::move(*t));
    }
    for (int i = 0; i < n; ++i) {
      const double base =
          probe1[static_cast<std::size_t>(n) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(i)];
      std::vector<double> per_q(static_cast<std::size_t>(n));
      for (int q = 0; q < n; ++q) {
        per_q[static_cast<std::size_t>(q)] =
            probe1[static_cast<std::size_t>(q) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(i)];
      }
      if (auto t = make_term(cls, static_cast<index_t>(i), base, per_q)) {
        plan.ttsv1.push_back(std::move(*t));
      }
    }
  }
  return plan;
}

std::vector<AccessPlan> extract_multi_plans(const MultiProbeKernel& k) {
  TE_REQUIRE(k.order >= 1 && k.dim >= 1 && k.width >= 1 && k.ttsv0 && k.ttsv1,
             "multi probe kernel must be fully bound");
  const int n = k.dim;
  const int w_count = k.width;
  const int probes = n + 1;  // probe p < n: x_p = 2; probe n: all ones
  const auto u =
      static_cast<std::size_t>(comb::num_unique_entries(k.order, n));

  std::vector<AccessPlan> plans(static_cast<std::size_t>(w_count));
  for (int w = 0; w < w_count; ++w) {
    auto& p = plans[static_cast<std::size_t>(w)];
    p.order = k.order;
    p.dim = n;
    p.tier = k.tier;
    p.width = w_count;
    p.lane = w;
  }

  std::vector<double> values(u, 0.0);
  kernels::VectorBatch<double> xb(n, w_count);
  kernels::VectorBatch<double> yb(n, w_count);
  std::vector<double> out0(static_cast<std::size_t>(w_count), 0.0);
  // r0[w][p] and r1[w][p][i], flattened: results of lane w under probe p.
  const auto stride_w0 = static_cast<std::size_t>(probes);
  const auto stride_w1 =
      static_cast<std::size_t>(probes) * static_cast<std::size_t>(n);
  std::vector<double> r0(static_cast<std::size_t>(w_count) * stride_w0, 0.0);
  std::vector<double> r1(static_cast<std::size_t>(w_count) * stride_w1, 0.0);

  for (std::size_t r = 0; r < u; ++r) {
    values[r] = 1.0;
    for (int j = 0; j < probes; ++j) {
      // Rotation assignment: lane w carries probe (j + w) mod (n + 1).
      for (int w = 0; w < w_count; ++w) {
        const int p = (j + w) % probes;
        for (int i = 0; i < n; ++i) xb.at(i, w) = (i == p) ? 2.0 : 1.0;
      }
      k.ttsv0(values, xb, out0);
      k.ttsv1(values, xb, yb);
      for (int w = 0; w < w_count; ++w) {
        const auto p = static_cast<std::size_t>((j + w) % probes);
        r0[static_cast<std::size_t>(w) * stride_w0 + p] =
            out0[static_cast<std::size_t>(w)];
        for (int i = 0; i < n; ++i) {
          r1[static_cast<std::size_t>(w) * stride_w1 +
             p * static_cast<std::size_t>(n) + static_cast<std::size_t>(i)] =
              yb.at(i, w);
        }
      }
    }
    values[r] = 0.0;

    const auto cls = static_cast<offset_t>(r);
    for (int w = 0; w < w_count; ++w) {
      auto& plan = plans[static_cast<std::size_t>(w)];
      const double* lane0 = r0.data() + static_cast<std::size_t>(w) * stride_w0;
      if (auto t = make_term(cls, 0, lane0[static_cast<std::size_t>(n)],
                             {lane0, static_cast<std::size_t>(n)})) {
        plan.ttsv0.push_back(std::move(*t));
      }
      const double* lane1 = r1.data() + static_cast<std::size_t>(w) * stride_w1;
      std::vector<double> per_q(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        const double base =
            lane1[static_cast<std::size_t>(n) * static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(i)];
        for (int q = 0; q < n; ++q) {
          per_q[static_cast<std::size_t>(q)] =
              lane1[static_cast<std::size_t>(q) * static_cast<std::size_t>(n) +
                    static_cast<std::size_t>(i)];
        }
        if (auto t = make_term(cls, static_cast<index_t>(i), base, per_q)) {
          plan.ttsv1.push_back(std::move(*t));
        }
      }
    }
  }
  return plans;
}

ProbeKernel bind_tier(int order, int dim, kernels::Tier tier) {
  // Table tiers share one KernelTables across all probes (shape-only data).
  std::shared_ptr<kernels::KernelTables<double>> tables;
  if (kernels::uses_tables(tier)) {
    tables = std::make_shared<kernels::KernelTables<double>>(order, dim);
  }

  ProbeKernel k;
  k.order = order;
  k.dim = dim;
  k.tier = tier;
  k.ttsv0 = [order, dim, tier, tables](std::span<const double> values,
                                       std::span<const double> x) {
    SymmetricTensor<double> a(order, dim,
                              std::vector<double>(values.begin(),
                                                  values.end()));
    const kernels::BoundKernels<double> b(a, tier, tables.get());
    return b.ttsv0(x);
  };
  k.ttsv1 = [order, dim, tier, tables](std::span<const double> values,
                                       std::span<const double> x,
                                       std::span<double> y) {
    SymmetricTensor<double> a(order, dim,
                              std::vector<double>(values.begin(),
                                                  values.end()));
    const kernels::BoundKernels<double> b(a, tier, tables.get());
    b.ttsv1(x, y);
  };
  return k;
}

MultiProbeKernel bind_multi_tier(int order, int dim, kernels::Tier tier,
                                 int width) {
  std::shared_ptr<kernels::KernelTables<double>> tables;
  if (kernels::uses_tables(tier)) {
    tables = std::make_shared<kernels::KernelTables<double>>(order, dim);
  }

  MultiProbeKernel k;
  k.order = order;
  k.dim = dim;
  k.width = width;
  k.tier = tier;
  k.ttsv0 = [order, dim, tier, tables, width](
                std::span<const double> values,
                const kernels::VectorBatch<double>& x,
                std::span<double> out0) {
    SymmetricTensor<double> a(order, dim,
                              std::vector<double>(values.begin(),
                                                  values.end()));
    const kernels::BoundKernels<double> m(a, tier, tables.get(), width);
    m.ttsv0(x, out0);
  };
  k.ttsv1 = [order, dim, tier, tables, width](
                std::span<const double> values,
                const kernels::VectorBatch<double>& x,
                kernels::VectorBatch<double>& y) {
    SymmetricTensor<double> a(order, dim,
                              std::vector<double>(values.begin(),
                                                  values.end()));
    const kernels::BoundKernels<double> m(a, tier, tables.get(), width);
    m.ttsv1(x, y);
  };
  return k;
}

}  // namespace te::analysis
