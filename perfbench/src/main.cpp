// Repository benchmark driver.
//
//   perfbench --workload paper_batch|tract_phantom|serve_stream --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. The last
// line of stdout is one JSON object {correct, attempted, failed, metrics}
// holding the metrics this workload measured; perfbench/run.py completes
// it against BENCHMARK.json. The exit code is non-zero when an output
// check failed.

#include <charconv>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

constexpr double kMinSpanCoverage = 0.9;

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

perfbench::RunConfig parse_args(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::stoull(val);
    } else if (key == "--seconds") {
      cfg.seconds = std::stod(val);
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--out-dir") {
      cfg.out_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in pairs");
  if (cfg.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  cfg.threads = static_cast<int>(std::thread::hardware_concurrency());
  if (cfg.threads < 1) cfg.threads = 1;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Report r;
  bool trace = false;
  try {
    const perfbench::RunConfig cfg = parse_args(argc, argv);
    trace = cfg.trace;
    std::filesystem::create_directories(cfg.out_dir);
    if (cfg.workload == "paper_batch") {
      r = perfbench::run_paper_batch(cfg);
    } else if (cfg.workload == "tract_phantom") {
      r = perfbench::run_tract_phantom(cfg);
    } else if (cfg.workload == "serve_stream") {
      r = perfbench::run_serve_stream(cfg);
    } else {
      throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  if (!trace) {
    r.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  } else {
    const auto cov = r.metrics.find("bench.span_coverage");
    if (cov == r.metrics.end() || cov->second.value < kMinSpanCoverage) {
      r.fail("stage spans cover less than 90% of the traced window");
    }
  }
  if (r.attempted < 1) r.fail("no work attempted");
  std::printf("failed_frac: %.6g (%lld failed of %lld attempted)\n",
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0,
              static_cast<long long>(r.failed),
              static_cast<long long>(r.attempted));
  for (const auto& e : r.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::string metrics;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-42s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false", static_cast<long long>(r.attempted),
      static_cast<long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
