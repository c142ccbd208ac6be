#include "te/analysis/analyze.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "te/analysis/checker.hpp"
#include "te/analysis/extract.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/obs/obs.hpp"

namespace te::analysis {

namespace {

bool tier_available(int order, int dim, kernels::Tier tier) {
  if (tier == kernels::Tier::kUnrolled) {
    return kernels::find_unrolled<double>(order, dim) != nullptr;
  }
  if (tier == kernels::Tier::kJit) {
    // Proved only when an admitted runtime kernel exists in this process
    // (te::jit acquires and registers them; te_analyze --jit drives this).
    return kernels::find_jit<double>(order, dim) != nullptr;
  }
  return true;
}

void count_findings(const CheckReport& r) {
  auto& reg = obs::global();
  for (const Finding& f : r.findings) {
    reg.counter("analysis.findings." +
                std::string(finding_kind_name(f.kind)))
        .inc();
  }
  if (r.suppressed > 0) {
    reg.counter("analysis.findings.suppressed").add(r.suppressed);
  }
}

}  // namespace

ShapeAnalysis analyze_shape(int order, int dim, const AnalyzeOptions& opt) {
  ShapeAnalysis s;
  s.order = order;
  s.dim = dim;

  std::vector<int> widths(opt.widths);
  if (opt.multi && widths.empty()) {
    const auto w = kernels::multi_widths();
    widths.assign(w.begin(), w.end());
  }

  for (const kernels::Tier tier : kernels::kHostTiers) {
    if (!tier_available(order, dim, tier)) continue;

    AccessPlan plan = extract_plan(bind_tier(order, dim, tier));
    s.reports.push_back(check_plan(plan));

    if (opt.multi) {
      for (const int w : widths) {
        const std::vector<AccessPlan> plans =
            extract_multi_plans(bind_multi_tier(order, dim, tier, w));
        s.reports.push_back(check_plans(plans));
      }
    }
  }

  if (opt.gpu) {
    for (const kernels::Tier tier : kernels::kDeviceTiers) {
      if (!tier_available(order, dim, tier)) continue;
      s.reports.push_back(
          check_device_kernel(order, dim, tier, opt.device_opt));
    }
  }
  return s;
}

std::vector<std::pair<int, int>> registered_shapes() {
  std::vector<std::pair<int, int>> shapes;
  for (const auto& e : kernels::unrolled_registry<double>()) {
    shapes.emplace_back(e.order, e.dim);
  }
  std::sort(shapes.begin(), shapes.end());
  shapes.erase(std::unique(shapes.begin(), shapes.end()), shapes.end());
  return shapes;
}

std::vector<ShapeAnalysis> analyze_all(const AnalyzeOptions& opt) {
  std::vector<ShapeAnalysis> all;
  std::int64_t extracted = 0;
  std::int64_t proven = 0;
  double max_way = 1.0;
  double min_ratio = 1.0;

  std::vector<std::pair<int, int>> shapes = registered_shapes();
  shapes.insert(shapes.end(), opt.extra_shapes.begin(),
                opt.extra_shapes.end());
  std::sort(shapes.begin(), shapes.end());
  shapes.erase(std::unique(shapes.begin(), shapes.end()), shapes.end());

  for (const auto& [order, dim] : shapes) {
    ShapeAnalysis s = analyze_shape(order, dim, opt);
    for (const CheckReport& r : s.reports) {
      ++extracted;
      if (r.proven()) ++proven;
      max_way = std::max(max_way, r.max_bank_conflict_way);
      min_ratio = std::min(min_ratio, r.coalescing_ratio);
      count_findings(r);
    }
    all.push_back(std::move(s));
  }

  auto& reg = obs::global();
  reg.counter("analysis.plans_extracted").add(extracted);
  reg.counter("analysis.plans_proven").add(proven);
  // Gauges mirror the totals so obs_json_check --require-gauge can gate on
  // them (it reads gauges, not counters).
  reg.gauge("analysis.plans_extracted").set(static_cast<double>(extracted));
  reg.gauge("analysis.plans_proven").set(static_cast<double>(proven));
  reg.gauge("analysis.shapes_analyzed").set(static_cast<double>(all.size()));
  reg.gauge("analysis.bank_conflict.max_way").set(max_way);
  reg.gauge("analysis.coalescing.min_ratio").set(min_ratio);
  return all;
}

std::string summarize(const ShapeAnalysis& s) {
  std::ostringstream os;
  os << "shape order=" << s.order << " dim=" << s.dim << ": "
     << (s.proven() ? "proven" : "FAILED") << " (" << s.reports.size()
     << " reports)\n";
  for (const CheckReport& r : s.reports) {
    os << "  " << r.summary() << '\n';
  }
  return os.str();
}

}  // namespace te::analysis
