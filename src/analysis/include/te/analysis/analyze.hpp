#pragma once
// Sweep driver: prove every registered kernel shape across every tier and
// lane width, and publish the results through te::obs.
//
// analyze_shape() runs, for one (order, dim):
//
//   * the host tiers (kernels::kHostTiers), extracted by probing and
//     proved by check_plan;
//   * every registered multi-lane width per tier (per-lane extraction via
//     rotation probing, cross-lane equality via check_plans);
//   * the device tiers (kernels::kDeviceTiers), traced through gpusim and
//     proved by check_device_kernel (race-freedom, publish ordering, global
//     write disjointness) with bank-conflict / coalescing diagnostics.
//
// analyze_all() sweeps the unrolled registry's shape list -- the repo's
// closed set of supported shapes -- which is what `te_analyze --all` and
// the ci.sh analysis pass gate on. Metrics published to obs::global():
//
//   analysis.plans_extracted / analysis.plans_proven   (counters + gauges)
//   analysis.findings.<kind>                           (counters)
//   analysis.bank_conflict.max_way                     (gauge, >= 1)
//   analysis.coalescing.min_ratio                      (gauge, <= 1)
//   analysis.shapes_analyzed                           (gauge)

#include <string>
#include <vector>

#include "te/analysis/gpu_check.hpp"
#include "te/analysis/plan.hpp"

namespace te::analysis {

struct AnalyzeOptions {
  bool gpu = true;    ///< include traced device-kernel checks
  bool multi = true;  ///< include the multi-lane widths
  /// Lane widths to verify; empty = every registered multi width.
  std::vector<int> widths;
  /// Extra (order, dim) shapes to sweep beyond the compile-time registry
  /// -- te_analyze --all feeds the JIT spill dir's cached shapes through
  /// here so cached artifacts stay continuously verified.
  std::vector<std::pair<int, int>> extra_shapes;
  DeviceCheckOptions device_opt;
};

/// Everything verified for one shape.
struct ShapeAnalysis {
  int order = 0;
  int dim = 0;
  std::vector<CheckReport> reports;

  [[nodiscard]] bool proven() const {
    for (const CheckReport& r : reports) {
      if (!r.proven()) return false;
    }
    return !reports.empty();
  }
};

/// Verify one shape across tiers/widths/device kernels.
[[nodiscard]] ShapeAnalysis analyze_shape(int order, int dim,
                                          const AnalyzeOptions& opt = {});

/// Verify every registered (order, dim) shape; also publishes the summary
/// gauges listed above.
[[nodiscard]] std::vector<ShapeAnalysis> analyze_all(
    const AnalyzeOptions& opt = {});

/// The registry's shape list (deduplicated), the sweep domain of
/// analyze_all().
[[nodiscard]] std::vector<std::pair<int, int>> registered_shapes();

/// Multi-line human-readable report (one line per CheckReport).
[[nodiscard]] std::string summarize(const ShapeAnalysis& s);

}  // namespace te::analysis
