#include "te/obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "te/util/json.hpp"

namespace te::obs {

namespace {

// ---------------------------------------------------------------------------
// JSON writing.
// ---------------------------------------------------------------------------

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no Inf/NaN
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string format_int(std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Schema checks.
// ---------------------------------------------------------------------------

using json::Value;
using Kind = json::Value::Kind;

bool expect(bool cond, const std::string& what, std::string& error) {
  if (!cond && error.empty()) error = what;
  return cond;
}

bool is(const Value* v, Kind kind) { return v != nullptr && v->kind == kind; }

/// Counters and histogram buckets: numbers without a fractional part.
bool is_integer(const Value& v) {
  return v.kind == Kind::kNumber && std::trunc(v.number) == v.number;
}

/// Top-level member `name` of a parsed document, when it is an object.
const Value* section(const std::optional<Value>& doc, std::string_view name) {
  const Value* v = doc ? doc->find(name) : nullptr;
  return is(v, Kind::kObject) ? v : nullptr;
}

bool check_histogram(const std::string& name, const Value& h,
                     std::string& error) {
  if (!expect(h.kind == Kind::kObject,
              "histogram '" + name + "' is not an object", error)) {
    return false;
  }
  for (const char* field : {"count", "total", "min", "max", "mean"}) {
    if (!expect(h.find_number(field).has_value(),
                "histogram '" + name + "' missing numeric field '" +
                    field + "'",
                error)) {
      return false;
    }
  }
  // Quantile fields are optional (artifacts written before they existed
  // stay valid) but must be numeric when present.
  for (const char* field : {"p50", "p95", "p99"}) {
    const Value* v = h.find(field);
    if (v != nullptr &&
        !expect(v->kind == Kind::kNumber,
                "histogram '" + name + "' field '" + field +
                    "' is not a number",
                error)) {
      return false;
    }
  }
  const Value* b = h.find("buckets");
  if (!expect(is(b, Kind::kArray),
              "histogram '" + name + "' missing buckets array", error)) {
    return false;
  }
  if (!expect(b->array.size() == static_cast<std::size_t>(kHistogramBuckets),
              "histogram '" + name + "' bucket array has wrong length",
              error)) {
    return false;
  }
  for (const auto& e : b->array) {
    if (!expect(is_integer(e),
                "histogram '" + name + "' has a non-integer bucket", error)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string to_json(const Snapshot& snap, const ExportMeta& meta) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"te-obs-v1\",\n  \"meta\": {";
  for (std::size_t i = 0; i < meta.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    json::append_escaped(out, meta[i].first);
    out += ": ";
    json::append_escaped(out, meta[i].second);
  }
  out += meta.empty() ? "},\n" : "\n  },\n";

  out += "  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    json::append_escaped(out, snap.counters[i].name);
    out += ": " + format_int(snap.counters[i].value);
  }
  out += snap.counters.empty() ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    json::append_escaped(out, snap.gauges[i].name);
    out += ": " + format_double(snap.gauges[i].value);
  }
  out += snap.gauges.empty() ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    out += i == 0 ? "\n    " : ",\n    ";
    json::append_escaped(out, h.name);
    out += ": {\"count\": " + format_int(h.count);
    out += ", \"total\": " + format_double(h.total);
    out += ", \"min\": " + format_double(h.min);
    out += ", \"max\": " + format_double(h.max);
    out += ", \"mean\": " + format_double(h.mean());
    out += ", \"p50\": " + format_double(h.quantile(0.50));
    out += ", \"p95\": " + format_double(h.quantile(0.95));
    out += ", \"p99\": " + format_double(h.quantile(0.99));
    out += ", \"buckets\": [";
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (b > 0) out += ", ";
      out += format_int(h.buckets[static_cast<std::size_t>(b)]);
    }
    out += "]}";
  }
  out += snap.histograms.empty() ? "},\n" : "\n  },\n";

  out += "  \"spans\": [";
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const auto& s = snap.spans[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{\"path\": ";
    json::append_escaped(out, s.path);
    out += ", \"depth\": " + format_int(s.depth);
    out += ", \"start_seconds\": " + format_double(s.start_seconds);
    out += ", \"duration_seconds\": " + format_double(s.duration_seconds);
    out += "}";
  }
  out += snap.spans.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

namespace {

/// RFC-4180-style field quoting. Metric names and span paths are caller-
/// controlled strings (service-layer labels can derive from wire input),
/// so a field holding a comma, quote or newline is quoted with inner
/// quotes doubled instead of corrupting the row structure.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Meta entries are emitted as one-line '#' comments; embedded newlines
/// would otherwise fabricate rows.
std::string comment_safe(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

}  // namespace

std::string to_csv(const Snapshot& snap, const ExportMeta& meta) {
  std::ostringstream out;
  for (const auto& [k, v] : meta) {
    out << "# " << comment_safe(k) << "=" << comment_safe(v) << "\n";
  }
  out << "kind,name,count,value,min,max,mean,p50,p95,p99\n";
  for (const auto& c : snap.counters) {
    out << "counter," << csv_field(c.name) << ",1," << c.value
        << ",,,,,,\n";
  }
  for (const auto& g : snap.gauges) {
    out << "gauge," << csv_field(g.name) << ",1," << format_double(g.value)
        << ",,,,,,\n";
  }
  for (const auto& h : snap.histograms) {
    out << "histogram," << csv_field(h.name) << "," << h.count << ","
        << format_double(h.total) << "," << format_double(h.min) << ","
        << format_double(h.max) << "," << format_double(h.mean()) << ","
        << format_double(h.quantile(0.50)) << ","
        << format_double(h.quantile(0.95)) << ","
        << format_double(h.quantile(0.99)) << "\n";
  }
  for (const auto& s : snap.spans) {
    out << "span," << csv_field(s.path) << "," << s.depth << ","
        << format_double(s.duration_seconds) << ",,,,,,\n";
  }
  return out.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << content;
  return static_cast<bool>(f);
}

ValidationResult validate_export_json(const std::string& json) {
  ValidationResult res;
  std::string& error = res.error;
  const auto doc = json::parse(json, &error);
  if (!doc) return res;

  if (!expect(doc->kind == Kind::kObject, "document root is not an object",
              error)) {
    return res;
  }
  const std::string* schema = doc->find_string("schema");
  if (!expect(schema != nullptr && *schema == "te-obs-v1",
              "missing or wrong schema tag (want \"te-obs-v1\")", error)) {
    return res;
  }

  const Value* meta = section(doc, "meta");
  if (!expect(meta != nullptr, "missing meta object", error)) return res;
  for (const auto& [k, v] : meta->object) {
    if (!expect(v.kind == Kind::kString,
                "meta entry '" + k + "' is not a string", error)) {
      return res;
    }
  }

  const Value* counters = section(doc, "counters");
  if (!expect(counters != nullptr, "missing counters object", error)) {
    return res;
  }
  for (const auto& [k, v] : counters->object) {
    if (!expect(is_integer(v), "counter '" + k + "' is not an integer",
                error)) {
      return res;
    }
  }

  const Value* gauges = section(doc, "gauges");
  if (!expect(gauges != nullptr, "missing gauges object", error)) return res;
  for (const auto& [k, v] : gauges->object) {
    if (!expect(v.kind == Kind::kNumber, "gauge '" + k + "' is not a number",
                error)) {
      return res;
    }
  }

  const Value* hists = section(doc, "histograms");
  if (!expect(hists != nullptr, "missing histograms object", error)) {
    return res;
  }
  for (const auto& [k, v] : hists->object) {
    if (!check_histogram(k, v, error)) return res;
  }

  const Value* spans = doc->find("spans");
  if (!expect(is(spans, Kind::kArray), "missing spans array", error)) {
    return res;
  }
  for (const auto& s : spans->array) {
    if (!expect(s.kind == Kind::kObject, "span is not an object", error)) {
      return res;
    }
    if (!expect(s.find_string("path") != nullptr,
                "span missing string 'path'", error)) {
      return res;
    }
    for (const char* field : {"depth", "start_seconds", "duration_seconds"}) {
      if (!expect(s.find_number(field).has_value(),
                  "span missing numeric field '" + std::string(field) + "'",
                  error)) {
        return res;
      }
    }
  }

  res.ok = true;
  return res;
}

std::optional<double> read_export_histogram_quantile(
    const std::string& json, const std::string& name, int percentile) {
  if (percentile != 50 && percentile != 95 && percentile != 99) {
    return std::nullopt;
  }
  const auto doc = json::parse(json);
  const Value* hists = section(doc, "histograms");
  const Value* h = hists != nullptr ? hists->find(name) : nullptr;
  if (h == nullptr) return std::nullopt;
  char field[8];
  std::snprintf(field, sizeof field, "p%d", percentile);
  return h->find_number(field);
}

std::optional<std::vector<std::pair<std::string, double>>>
read_export_counters(const std::string& json, const std::string& prefix) {
  const auto doc = json::parse(json);
  const Value* counters = section(doc, "counters");
  if (counters == nullptr) return std::nullopt;
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, v] : counters->object) {
    if (name.starts_with(prefix) && v.kind == Kind::kNumber) {
      out.emplace_back(name, v.number);
    }
  }
  return out;
}

std::optional<double> read_export_gauge(const std::string& json,
                                        const std::string& name) {
  const auto doc = json::parse(json);
  const Value* gauges = section(doc, "gauges");
  if (gauges == nullptr) return std::nullopt;
  return gauges->find_number(name);
}

}  // namespace te::obs
