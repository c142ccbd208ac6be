// Schema gate for te::obs JSON exports (scripts/ci.sh bench smoke pass).
//
// Usage: obs_json_check FILE [FILE...] [--require-gauge NAME MIN]...
//                       [--require-gauge-max NAME MAX]...
//                       [--require-quantile NAME PCT MAX]...
//                       [--same-counters BASELINE PREFIX]...
//
// Each FILE must parse as a te-obs-v1 document (schema tag, meta, counters,
// gauges, histograms with full bucket arrays, spans). Every --require-gauge
// NAME MIN pair additionally demands that each FILE carries gauge NAME with
// value >= MIN -- CI uses this to assert bench artifacts really exercised a
// feature (e.g. kernels.multi.simd_width >= 1). --require-gauge-max is the
// ceiling-side twin (value <= MAX), used for never-events like
// serve.requests.lost. --require-quantile NAME PCT MAX demands histogram
// NAME carries the pPCT quantile field (PCT in {50, 95, 99}) with value
// <= MAX -- the CI tail-latency gate. --same-counters BASELINE PREFIX
// demands that every counter whose name starts with PREFIX is present in
// both FILE and the BASELINE document with equal values (and that the
// baseline has at least one): the exact-count regression gate for
// deterministic counters. Exit status 0 iff all files validate
// and satisfy every requirement; every failure is reported on stderr with
// the offending path so CI logs point at the broken artifact directly.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "te/obs/export.hpp"

namespace {

struct GaugeRequirement {
  std::string name;
  double bound = 0;
  bool is_max = false;  ///< false: value >= bound; true: value <= bound
};

struct QuantileRequirement {
  std::string name;
  int percentile = 99;
  double max = 0;
};

struct CounterBaseline {
  std::string path;
  std::string prefix;
};

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "obs_json_check: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Every PREFIX counter of `json` and of the baseline, present in both
/// with equal values.
bool same_counters(const char* path, const std::string& json,
                   const CounterBaseline& req) {
  const auto base_json = read_file(req.path);
  if (!base_json) return false;
  const auto base = te::obs::read_export_counters(*base_json, req.prefix);
  const auto mine = te::obs::read_export_counters(json, req.prefix);
  if (!base || base->empty()) {
    std::fprintf(stderr,
                 "obs_json_check: baseline %s has no counters under '%s'\n",
                 req.path.c_str(), req.prefix.c_str());
    return false;
  }
  bool ok = true;
  const auto find = [](const auto& list, const std::string& name) {
    for (const auto& [n, v] : list) {
      if (n == name) return std::optional<double>(v);
    }
    return std::optional<double>();
  };
  for (const auto& [name, v] : *base) {
    const auto got = find(*mine, name);
    if (!got) {
      std::fprintf(stderr, "obs_json_check: %s: missing counter '%s'\n",
                   path, name.c_str());
      ok = false;
    } else if (*got != v) {
      std::fprintf(stderr,
                   "obs_json_check: %s: counter '%s' = %.17g, baseline %s "
                   "has %.17g\n",
                   path, name.c_str(), *got, req.path.c_str(), v);
      ok = false;
    }
  }
  for (const auto& [name, v] : *mine) {
    if (!find(*base, name)) {
      std::fprintf(stderr,
                   "obs_json_check: %s: counter '%s' is not in baseline %s\n",
                   path, name.c_str(), req.path.c_str());
      ok = false;
    }
  }
  return ok;
}

bool check_file(const char* path,
                const std::vector<GaugeRequirement>& gauges,
                const std::vector<QuantileRequirement>& quantiles,
                const std::vector<CounterBaseline>& baselines) {
  const auto text = read_file(path);
  if (!text) return false;
  const std::string& json = *text;
  const te::obs::ValidationResult v = te::obs::validate_export_json(json);
  if (!v.ok) {
    std::fprintf(stderr, "obs_json_check: %s: %s\n", path, v.error.c_str());
    return false;
  }
  bool ok = true;
  for (const auto& req : gauges) {
    const auto g = te::obs::read_export_gauge(json, req.name);
    if (!g.has_value()) {
      std::fprintf(stderr, "obs_json_check: %s: missing gauge '%s'\n", path,
                   req.name.c_str());
      ok = false;
    } else if (!req.is_max && *g < req.bound) {
      std::fprintf(stderr,
                   "obs_json_check: %s: gauge '%s' = %g below minimum %g\n",
                   path, req.name.c_str(), *g, req.bound);
      ok = false;
    } else if (req.is_max && *g > req.bound) {
      std::fprintf(stderr,
                   "obs_json_check: %s: gauge '%s' = %g above maximum %g\n",
                   path, req.name.c_str(), *g, req.bound);
      ok = false;
    }
  }
  for (const auto& req : quantiles) {
    const auto q = te::obs::read_export_histogram_quantile(json, req.name,
                                                           req.percentile);
    if (!q.has_value()) {
      std::fprintf(stderr,
                   "obs_json_check: %s: missing histogram quantile "
                   "'%s' p%d\n",
                   path, req.name.c_str(), req.percentile);
      ok = false;
    } else if (*q > req.max) {
      std::fprintf(stderr,
                   "obs_json_check: %s: histogram '%s' p%d = %g above "
                   "maximum %g\n",
                   path, req.name.c_str(), req.percentile, *q, req.max);
      ok = false;
    }
  }
  for (const auto& req : baselines) ok = same_counters(path, json, req) && ok;
  if (ok) std::printf("obs_json_check: %s: ok\n", path);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> files;
  std::vector<GaugeRequirement> gauges;
  std::vector<QuantileRequirement> quantiles;
  std::vector<CounterBaseline> baselines;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--require-gauge" || arg == "--require-gauge-max") {
      if (i + 2 >= argc) {
        std::fprintf(stderr, "obs_json_check: %s needs NAME BOUND\n",
                     arg.c_str());
        return 2;
      }
      GaugeRequirement req;
      req.name = argv[i + 1];
      req.bound = std::strtod(argv[i + 2], nullptr);
      req.is_max = arg == "--require-gauge-max";
      gauges.push_back(std::move(req));
      i += 2;
    } else if (arg == "--require-quantile") {
      if (i + 3 >= argc) {
        std::fprintf(stderr,
                     "obs_json_check: --require-quantile needs NAME PCT "
                     "MAX\n");
        return 2;
      }
      QuantileRequirement req;
      req.name = argv[i + 1];
      req.percentile = static_cast<int>(std::strtol(argv[i + 2], nullptr, 10));
      req.max = std::strtod(argv[i + 3], nullptr);
      if (req.percentile != 50 && req.percentile != 95 &&
          req.percentile != 99) {
        std::fprintf(stderr,
                     "obs_json_check: --require-quantile PCT must be 50, 95 "
                     "or 99 (got %d)\n",
                     req.percentile);
        return 2;
      }
      quantiles.push_back(std::move(req));
      i += 3;
    } else if (arg == "--same-counters") {
      if (i + 2 >= argc) {
        std::fprintf(stderr,
                     "obs_json_check: --same-counters needs BASELINE "
                     "PREFIX\n");
        return 2;
      }
      baselines.push_back({argv[i + 1], argv[i + 2]});
      i += 2;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: obs_json_check FILE [FILE...] "
                 "[--require-gauge NAME MIN]... "
                 "[--require-gauge-max NAME MAX]... "
                 "[--require-quantile NAME PCT MAX]... "
                 "[--same-counters BASELINE PREFIX]...\n");
    return 2;
  }
  bool ok = true;
  for (const char* f : files) {
    ok = check_file(f, gauges, quantiles, baselines) && ok;
  }
  return ok ? 0 : 1;
}
