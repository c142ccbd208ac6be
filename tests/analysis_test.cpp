// Tests for te::analysis -- the static access-plan verifier.
//
// Two halves:
//
//   * positive: every shipped tier/width/device kernel on the small shapes
//     extracts to a plan the checker proves (the full registry sweep lives
//     in analysis_sweep_test.cpp under the `analysis` ctest label);
//   * negative: seeded-defect mutants -- a dropped index class, a doubled
//     coefficient, an off-by-one write target, an invented term, a squared
//     monomial, a desynchronized lane, a missing barrier, overlapping
//     writes -- must each be rejected with the *specific* finding kind the
//     defect implies, which is what makes the verifier trustworthy as an
//     admission oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "te/analysis/analyze.hpp"
#include "te/analysis/checker.hpp"
#include "te/analysis/extract.hpp"
#include "te/analysis/gpu_check.hpp"
#include "te/analysis/plan.hpp"
#include "te/gpusim/access_trace.hpp"
#include "te/gpusim/mem_sanitizer.hpp"

namespace te::analysis {
namespace {

using gpusim::AccessKind;
using gpusim::AccessTracer;
using gpusim::MemSpace;
using gpusim::TraceEvent;

bool has_kind(const CheckReport& rep, FindingKind k) {
  for (const Finding& f : rep.findings) {
    if (f.kind == k) return true;
  }
  return false;
}

int count_kind(const std::vector<Finding>& fs, FindingKind k) {
  int n = 0;
  for (const Finding& f : fs) {
    if (f.kind == k) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Reference plan combinatorics.
// ---------------------------------------------------------------------------

TEST(ReferencePlan, Order2Dim2IsTheMatrixQuadraticForm) {
  const AccessPlan ref = reference_plan(2, 2);
  // Classes in lex order: (0,0), (0,1), (1,1).
  ASSERT_EQ(ref.ttsv0.size(), 3u);
  EXPECT_EQ(ref.ttsv0[0].coeff, 1.0);  // a00 x0^2
  EXPECT_EQ(ref.ttsv0[1].coeff, 2.0);  // 2 a01 x0 x1
  EXPECT_EQ(ref.ttsv0[2].coeff, 1.0);  // a11 x1^2
  EXPECT_EQ(ref.ttsv0[0].exponents, (std::vector<index_t>{2, 0}));
  EXPECT_EQ(ref.ttsv0[1].exponents, (std::vector<index_t>{1, 1}));
  EXPECT_EQ(ref.ttsv0[2].exponents, (std::vector<index_t>{0, 2}));

  // ttsv1 = A x: (0,0)->y0, (0,1)->y0 and y1, (1,1)->y1, all coefficient 1.
  ASSERT_EQ(ref.ttsv1.size(), 4u);
  for (const Term& t : ref.ttsv1) EXPECT_EQ(t.coeff, 1.0);
  EXPECT_EQ(ref.ttsv1[0].out_index, 0);
  EXPECT_EQ(ref.ttsv1[1].out_index, 0);
  EXPECT_EQ(ref.ttsv1[2].out_index, 1);
  EXPECT_EQ(ref.ttsv1[3].out_index, 1);
}

TEST(ReferencePlan, TermCountsMatchClassCombinatorics) {
  // ttsv0 has exactly one term per index class; ttsv1 one per
  // (class, distinct index).
  const AccessPlan ref = reference_plan(3, 4);
  EXPECT_EQ(ref.ttsv0.size(), 20u);  // C(3+4-1, 3)
  for (std::size_t i = 1; i < ref.ttsv0.size(); ++i) {
    EXPECT_LT(ref.ttsv0[i - 1].cls, ref.ttsv0[i].cls);
  }
}

// ---------------------------------------------------------------------------
// Positive: shipped kernels prove clean.
// ---------------------------------------------------------------------------

TEST(CheckPlan, AllScalarTiersProveCleanOnApplicationShape) {
  const kernels::Tier tiers[] = {
      kernels::Tier::kGeneral,
      kernels::Tier::kPrecomputed,
      kernels::Tier::kUnrolled,
  };
  for (const kernels::Tier tier : tiers) {
    const AccessPlan plan = extract_plan(bind_tier(4, 3, tier));
    const CheckReport rep = check_plan(plan);
    EXPECT_TRUE(rep.proven()) << rep.summary();
    EXPECT_GT(rep.terms_checked, 0);
  }
}

TEST(CheckPlans, MultiLaneKernelsProveCleanAcrossLanes) {
  for (const int width : {2, 4}) {
    const auto plans =
        extract_multi_plans(bind_multi_tier(3, 3, kernels::Tier::kUnrolled,
                                            width));
    ASSERT_EQ(plans.size(), static_cast<std::size_t>(width));
    const CheckReport rep = check_plans(plans);
    EXPECT_TRUE(rep.proven()) << rep.summary();
    EXPECT_EQ(rep.width, width);
  }
}

// ---------------------------------------------------------------------------
// Negative: seeded defects are rejected with the right finding kind.
// ---------------------------------------------------------------------------

/// Mutant: the kernel never reads index class 0 (dropped-term bug).
TEST(Mutants, DroppedIndexClassIsFlaggedMissing) {
  ProbeKernel mutant = bind_tier(2, 2, kernels::Tier::kGeneral);
  const auto base0 = mutant.ttsv0;
  const auto base1 = mutant.ttsv1;
  mutant.ttsv0 = [base0](std::span<const double> values,
                         std::span<const double> x) {
    std::vector<double> v(values.begin(), values.end());
    v[0] = 0.0;
    return base0(v, x);
  };
  mutant.ttsv1 = [base1](std::span<const double> values,
                         std::span<const double> x, std::span<double> y) {
    std::vector<double> v(values.begin(), values.end());
    v[0] = 0.0;
    base1(v, x, y);
  };

  const CheckReport rep = check_plan(extract_plan(mutant));
  EXPECT_FALSE(rep.proven());
  EXPECT_EQ(count_kind(rep.findings, FindingKind::kMissingClass), 2);
  for (const Finding& f : rep.findings) EXPECT_EQ(f.cls, 0);
}

/// Mutant: every ttsv0 coefficient doubled (duplicated accumulation).
TEST(Mutants, DoubledCoefficientIsFlaggedWithExactValues) {
  ProbeKernel mutant = bind_tier(2, 2, kernels::Tier::kGeneral);
  const auto base0 = mutant.ttsv0;
  mutant.ttsv0 = [base0](std::span<const double> values,
                         std::span<const double> x) {
    return 2.0 * base0(values, x);
  };

  const CheckReport rep = check_plan(extract_plan(mutant));
  EXPECT_FALSE(rep.proven());
  EXPECT_EQ(count_kind(rep.findings, FindingKind::kCoefficientMismatch), 3);
  for (const Finding& f : rep.findings) {
    EXPECT_EQ(f.actual, 2.0 * f.expected);
  }
}

/// Mutant: every ttsv1 contribution lands one output slot too high.
TEST(Mutants, OffByOneWriteTargetIsFlagged) {
  ProbeKernel mutant = bind_tier(2, 3, kernels::Tier::kGeneral);
  const auto base1 = mutant.ttsv1;
  mutant.ttsv1 = [base1](std::span<const double> values,
                         std::span<const double> x, std::span<double> y) {
    std::vector<double> tmp(y.size());
    base1(values, x, tmp);
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[(i + 1) % y.size()] = tmp[i];
    }
  };

  const CheckReport rep = check_plan(extract_plan(mutant));
  EXPECT_FALSE(rep.proven());
  EXPECT_TRUE(has_kind(rep, FindingKind::kWrongWriteTarget)) << rep.summary();
  for (const Finding& f : rep.findings) {
    if (f.kind == FindingKind::kWrongWriteTarget) {
      // expected/actual carry the reference and mutant output slots.
      EXPECT_NE(f.expected, f.actual);
    }
  }
}

/// Mutant: an extra term the reference never had -- y0 += a_{(1,1)}.
TEST(Mutants, InventedTermIsFlaggedUnexpected) {
  ProbeKernel mutant = bind_tier(2, 2, kernels::Tier::kGeneral);
  const auto base1 = mutant.ttsv1;
  mutant.ttsv1 = [base1](std::span<const double> values,
                         std::span<const double> x, std::span<double> y) {
    base1(values, x, y);
    y[0] += values[2];  // class (1,1) never contributes to y0
  };

  const CheckReport rep = check_plan(extract_plan(mutant));
  EXPECT_FALSE(rep.proven());
  ASSERT_EQ(count_kind(rep.findings, FindingKind::kUnexpectedTerm), 1);
  EXPECT_EQ(rep.findings[0].cls, 2);
  EXPECT_EQ(rep.findings[0].out_index, 0);
}

/// Mutant: x0 squared before the real kernel runs (wrong power).
TEST(Mutants, WrongMonomialIsFlagged) {
  ProbeKernel mutant = bind_tier(2, 2, kernels::Tier::kGeneral);
  const auto base0 = mutant.ttsv0;
  mutant.ttsv0 = [base0](std::span<const double> values,
                         std::span<const double> x) {
    std::vector<double> x2(x.begin(), x.end());
    x2[0] = x[0] * x[0];
    return base0(values, x2);
  };

  const CheckReport rep = check_plan(extract_plan(mutant));
  EXPECT_FALSE(rep.proven());
  // Classes containing index 0 see a doubled exponent; no coefficient
  // drifts because the bases are probed at x = 1.
  EXPECT_GE(count_kind(rep.findings, FindingKind::kWrongMonomial), 1);
  EXPECT_EQ(count_kind(rep.findings, FindingKind::kCoefficientMismatch), 0);
}

/// Mutant: lane 1 of a width-2 kernel computes double the ttsv0 value.
TEST(Mutants, DesynchronizedLaneIsFlagged) {
  MultiProbeKernel mutant =
      bind_multi_tier(2, 2, kernels::Tier::kGeneral, 2);
  const auto base0 = mutant.ttsv0;
  mutant.ttsv0 = [base0](std::span<const double> values,
                         const kernels::VectorBatch<double>& x,
                         std::span<double> out0) {
    base0(values, x, out0);
    out0[1] *= 2.0;
  };

  const CheckReport rep = check_plans(extract_multi_plans(mutant));
  EXPECT_FALSE(rep.proven());
  EXPECT_TRUE(has_kind(rep, FindingKind::kLaneMismatch));
  for (const Finding& f : rep.findings) {
    if (f.kind != FindingKind::kLaneMismatch) {
      EXPECT_EQ(f.lane, 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Trace obligations: barriers, races, publish ordering.
// ---------------------------------------------------------------------------

TEST(TraceCheck, WriteThenReadAcrossBarrierIsClean) {
  AccessTracer tr;
  tr.begin_block(0);
  tr.record(MemSpace::kShared, 0, AccessKind::kWrite, 0, 8);
  tr.advance_epoch();  // the barrier publishing the write
  tr.record(MemSpace::kShared, 1, AccessKind::kRead, 0, 8);
  EXPECT_TRUE(check_trace(tr.events()).empty());
}

/// The missing-barrier mutant: the read lands in the writing epoch.
TEST(TraceCheck, MissingBarrierIsFlaggedReadBeforePublish) {
  AccessTracer tr;
  tr.begin_block(0);
  tr.record(MemSpace::kShared, 0, AccessKind::kWrite, 0, 8);
  tr.record(MemSpace::kShared, 1, AccessKind::kRead, 0, 8);
  const auto findings = check_trace(tr.events());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kReadBeforePublish);
}

TEST(TraceCheck, OverlappingSharedWritesAreARace) {
  AccessTracer tr;
  tr.begin_block(0);
  tr.record(MemSpace::kShared, 0, AccessKind::kWrite, 16, 8);
  tr.record(MemSpace::kShared, 3, AccessKind::kWrite, 20, 8);
  const auto findings = check_trace(tr.events());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kRace);
}

TEST(TraceCheck, DisjointSharedWritesAreClean) {
  AccessTracer tr;
  tr.begin_block(0);
  for (int t = 0; t < 8; ++t) {
    tr.record(MemSpace::kShared, t, AccessKind::kWrite,
              static_cast<std::uint64_t>(t) * 8, 8);
  }
  EXPECT_TRUE(check_trace(tr.events()).empty());
}

TEST(TraceCheck, GlobalWriteOverlapAcrossBlocksIsARace) {
  AccessTracer tr;
  tr.begin_block(0);
  tr.record(MemSpace::kGlobal, 0, AccessKind::kWrite, 0x1000, 8);
  tr.begin_block(1);
  tr.record(MemSpace::kGlobal, 0, AccessKind::kWrite, 0x1004, 8);
  const auto findings = check_trace(tr.events());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kRace);
}

// ---------------------------------------------------------------------------
// Warp transaction statistics.
// ---------------------------------------------------------------------------

TEST(WarpStats, UnitStrideSharedReadsAreConflictFree) {
  AccessTracer tr;
  tr.begin_block(0);
  for (int t = 0; t < 32; ++t) {
    tr.record(MemSpace::kShared, t, AccessKind::kRead,
              static_cast<std::uint64_t>(t) * 4, 4);
  }
  const WarpStats s =
      warp_transaction_stats(tr.events(), gpusim::DeviceSpec::tesla_c2050());
  EXPECT_EQ(s.shared_transactions, 1);
  EXPECT_EQ(s.max_bank_conflict_way, 1.0);
}

TEST(WarpStats, Stride2SharedReadsAreTwoWayConflicted) {
  AccessTracer tr;
  tr.begin_block(0);
  for (int t = 0; t < 32; ++t) {
    tr.record(MemSpace::kShared, t, AccessKind::kRead,
              static_cast<std::uint64_t>(t) * 8, 4);
  }
  const WarpStats s =
      warp_transaction_stats(tr.events(), gpusim::DeviceSpec::tesla_c2050());
  EXPECT_EQ(s.shared_transactions, 1);
  EXPECT_EQ(s.max_bank_conflict_way, 2.0);
}

TEST(WarpStats, SameWordIsABroadcastNotAConflict) {
  AccessTracer tr;
  tr.begin_block(0);
  for (int t = 0; t < 32; ++t) {
    tr.record(MemSpace::kShared, t, AccessKind::kRead, 0, 4);
  }
  const WarpStats s =
      warp_transaction_stats(tr.events(), gpusim::DeviceSpec::tesla_c2050());
  EXPECT_EQ(s.max_bank_conflict_way, 1.0);
}

TEST(WarpStats, BulkRecordsAreExcludedFromBankCounting) {
  AccessTracer tr;
  tr.begin_block(0);
  tr.record(MemSpace::kShared, 0, AccessKind::kRead, 0, 400);
  const WarpStats s =
      warp_transaction_stats(tr.events(), gpusim::DeviceSpec::tesla_c2050());
  EXPECT_EQ(s.bulk_events, 1);
  EXPECT_EQ(s.shared_transactions, 0);
}

TEST(WarpStats, ContiguousGlobalWritesCoalescePerfectly) {
  AccessTracer tr;
  tr.begin_block(0);
  for (int t = 0; t < 32; ++t) {
    tr.record(MemSpace::kGlobal, t, AccessKind::kWrite,
              1024 + static_cast<std::uint64_t>(t) * 8, 8);
  }
  const WarpStats s =
      warp_transaction_stats(tr.events(), gpusim::DeviceSpec::tesla_c2050());
  EXPECT_EQ(s.global_transactions, 1);
  EXPECT_EQ(s.coalescing_ratio, 1.0);
}

TEST(WarpStats, SegmentStridedGlobalWritesScorePoorly) {
  AccessTracer tr;
  tr.begin_block(0);
  for (int t = 0; t < 32; ++t) {
    tr.record(MemSpace::kGlobal, t, AccessKind::kWrite,
              1024 + static_cast<std::uint64_t>(t) * 128, 4);
  }
  const WarpStats s =
      warp_transaction_stats(tr.events(), gpusim::DeviceSpec::tesla_c2050());
  EXPECT_EQ(s.global_transactions, 1);
  EXPECT_DOUBLE_EQ(s.coalescing_ratio, 1.0 / 32.0);
}

// ---------------------------------------------------------------------------
// Traced device kernels and the sweep driver.
// ---------------------------------------------------------------------------

TEST(DeviceCheck, DeviceTiersProveCleanOnSmallShape) {
  for (const kernels::Tier tier : kernels::kDeviceTiers) {
    const CheckReport rep = check_device_kernel(3, 2, tier);
    EXPECT_TRUE(rep.proven()) << rep.summary();
    EXPECT_EQ(rep.subject, "device");
    EXPECT_GT(rep.traced_events, 0);
    EXPECT_GE(rep.max_bank_conflict_way, 1.0);
    EXPECT_GT(rep.coalescing_ratio, 0.0);
  }
}

TEST(Analyze, ShapeSweepCoversAllTiersAndWidths) {
  AnalyzeOptions opt;
  opt.widths = {2};
  const ShapeAnalysis s = analyze_shape(2, 2, opt);
  EXPECT_TRUE(s.proven());
  // 3 host tiers (no admitted jit kernel) x (scalar + one width) + 3
  // device tiers.
  EXPECT_EQ(s.reports.size(), 9u);
}

TEST(Analyze, RegisteredShapesAreSortedUniqueAndIncludeApplicationSize) {
  const auto shapes = registered_shapes();
  ASSERT_FALSE(shapes.empty());
  for (std::size_t i = 1; i < shapes.size(); ++i) {
    EXPECT_LT(shapes[i - 1], shapes[i]);
  }
  EXPECT_NE(std::find(shapes.begin(), shapes.end(), std::make_pair(4, 3)),
            shapes.end());
}

TEST(Reporting, FindingKindNamesAreStable) {
  EXPECT_EQ(finding_kind_name(FindingKind::kMissingClass), "missing_class");
  EXPECT_EQ(finding_kind_name(FindingKind::kRace), "race");
  EXPECT_EQ(finding_kind_name(FindingKind::kCostModelMismatch),
            "cost_model_mismatch");
}

TEST(Reporting, SummaryAndToStringAreOneLiners) {
  const CheckReport rep = check_plan(
      extract_plan(bind_tier(2, 2, kernels::Tier::kGeneral)));
  const std::string s = rep.summary();
  EXPECT_NE(s.find("proven"), std::string::npos);
  EXPECT_NE(s.find("tier=general"), std::string::npos);
  EXPECT_EQ(s.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace te::analysis
