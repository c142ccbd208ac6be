// Full-registry verification sweep (ctest label: analysis).
//
// Proves every registered (order, dim) shape across every host tier,
// every registered multi-lane width per tier, and the three traced device
// tiers -- the same domain `te_analyze --all` gates CI on, exercised here
// through the library API so failures localize to a single report line.

#include <gtest/gtest.h>

#include "te/analysis/analyze.hpp"
#include "te/obs/obs.hpp"

namespace te::analysis {
namespace {

TEST(AnalysisSweep, EveryRegisteredShapeTierAndWidthProves) {
  const std::vector<ShapeAnalysis> all = analyze_all();
  EXPECT_EQ(all.size(), registered_shapes().size());

  std::int64_t reports = 0;
  for (const ShapeAnalysis& s : all) {
    EXPECT_TRUE(s.proven()) << summarize(s);
    for (const CheckReport& r : s.reports) {
      ++reports;
      EXPECT_TRUE(r.proven()) << r.summary();
    }
  }
  // 3 host tiers (jit has no admitted kernels here) x (1 + 4 widths) +
  // 3 device tiers per shape.
  EXPECT_EQ(reports, static_cast<std::int64_t>(all.size()) * 18);

#if TE_OBS_ENABLED
  // analyze_all publishes the CI gauges obs_json_check gates on.
  auto& reg = obs::global();
  EXPECT_EQ(reg.gauge("analysis.plans_extracted").value(),
            static_cast<double>(reports));
  EXPECT_EQ(reg.gauge("analysis.plans_proven").value(),
            static_cast<double>(reports));
  EXPECT_GE(reg.gauge("analysis.bank_conflict.max_way").value(), 1.0);
  EXPECT_GT(reg.gauge("analysis.coalescing.min_ratio").value(), 0.0);
  EXPECT_LE(reg.gauge("analysis.coalescing.min_ratio").value(), 1.0);
#endif
}

}  // namespace
}  // namespace te::analysis
