#pragma once
// Exporters for te::obs snapshots, plus a schema validator.
//
// Two formats:
//
//   * JSON ("te-obs-v1"): one self-describing document -- schema tag, a
//     caller-supplied meta block (bench name, workload, host), then
//     counters/gauges/histograms keyed by metric name and the span trace.
//     This is what the benches write as BENCH_<name>.json so the perf
//     trajectory is machine-diffable across commits.
//   * CSV: one row per metric (kind,name,count,value,min,max,mean), for
//     spreadsheet-grade consumers; spans are exported as kind=span rows
//     with the duration in the value column.
//
// validate_export_json() re-parses a document with the library's one
// strict JSON reader (te/util/json.hpp) and checks it against the
// te-obs-v1 shape; the read_export_* lookups parse the same way. tools/
// obs_json_check wraps it as the CI gate, and the unit tests close the
// loop (export -> validate) in both TE_OBS modes. The exporters work in
// disabled builds too -- they just see an empty snapshot -- so bench
// command lines do not change between configurations.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "te/obs/obs.hpp"

namespace te::obs {

/// Caller-supplied context written into the JSON "meta" object and the CSV
/// preamble (pairs are emitted in order; keys should be unique).
using ExportMeta = std::vector<std::pair<std::string, std::string>>;

/// Serialize a snapshot as a te-obs-v1 JSON document (UTF-8, newline
/// terminated, stable key order -- diffs stay readable).
[[nodiscard]] std::string to_json(const Snapshot& snap,
                                  const ExportMeta& meta = {});

/// Serialize a snapshot as CSV (header row + one row per metric/span).
[[nodiscard]] std::string to_csv(const Snapshot& snap,
                                 const ExportMeta& meta = {});

/// Write `content` to `path` (truncating). Returns false on I/O failure.
bool write_file(const std::string& path, const std::string& content);

/// Outcome of a schema validation.
struct ValidationResult {
  bool ok = false;
  std::string error;  ///< empty when ok; else a human-readable reason
};

/// Check that `json` parses and matches the te-obs-v1 schema: the schema
/// tag, meta as a string->string object, counters as integer-valued and
/// gauges as number-valued objects, histograms carrying count/total/min/
/// max/mean plus a kHistogramBuckets-long bucket array, spans as an array
/// of {path, depth, start_seconds, duration_seconds}.
[[nodiscard]] ValidationResult validate_export_json(const std::string& json);

/// Read one gauge value out of a te-obs-v1 document by metric name.
/// Returns nullopt when the document does not parse, has no gauges
/// object, or the gauge is absent (the TE_OBS=OFF export). CI uses this
/// (via obs_json_check --require-gauge) to assert bench artifacts carry a
/// given gauge above a floor.
[[nodiscard]] std::optional<double> read_export_gauge(
    const std::string& json, const std::string& name);

/// Every counter whose name starts with `prefix`, as (name, value) pairs
/// in document order. Returns nullopt when the document does not parse or
/// has no counters object. CI uses this (via obs_json_check
/// --same-counters) to hold a fresh bench artifact's deterministic counts
/// equal to the committed baseline's.
[[nodiscard]] std::optional<std::vector<std::pair<std::string, double>>>
read_export_counters(const std::string& json, const std::string& prefix);

/// Read one histogram quantile (percentile must be 50, 95 or 99 -- the
/// exported fields) out of a te-obs-v1 document by metric name. Returns
/// nullopt when the document does not parse, the histogram is absent, or
/// it predates the quantile fields. CI uses this via obs_json_check
/// --require-quantile to gate on tail latency.
[[nodiscard]] std::optional<double> read_export_histogram_quantile(
    const std::string& json, const std::string& name, int percentile);

}  // namespace te::obs
