#include "te/obs/export.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

namespace te::obs {

namespace {

// ---------------------------------------------------------------------------
// JSON writing.
// ---------------------------------------------------------------------------

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

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
// Minimal JSON reading (validation only; no external dependency allowed).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  bool number_is_integer = false;  ///< lexeme had no '.', 'e' or 'E'
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parse the whole document; returns false with `error` set on failure.
  bool parse(JsonValue& out, std::string& error) {
    skip_ws();
    if (!parse_value(out, error)) return false;
    skip_ws();
    if (pos_ != s_.size()) {
      error = "trailing characters after document end";
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool fail(std::string& error, const std::string& what) {
    error = what + " at offset " + std::to_string(pos_);
    return false;
  }

  bool parse_value(JsonValue& out, std::string& error) {
    if (pos_ >= s_.size()) return fail(error, "unexpected end of input");
    const char c = s_[pos_];
    if (c == '{') return parse_object(out, error);
    if (c == '[') return parse_array(out, error);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string, error);
    }
    if (c == 't' || c == 'f') return parse_literal(out, error);
    if (c == 'n') return parse_null(out, error);
    return parse_number(out, error);
  }

  bool parse_object(JsonValue& out, std::string& error) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key, error)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        return fail(error, "expected ':' in object");
      }
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!parse_value(v, error)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail(error, "unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out, std::string& error) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!parse_value(v, error)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail(error, "unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out, std::string& error) {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return fail(error, "expected string");
    }
    ++pos_;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return fail(error, "unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > s_.size()) {
              return fail(error, "truncated \\u escape");
            }
            // Validation-grade handling: keep the escape verbatim (metric
            // names are ASCII; nothing downstream re-decodes).
            out += "\\u";
            out.append(s_, pos_, 4);
            pos_ += 4;
            break;
          }
          default:
            return fail(error, "unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail(error, "unterminated string");
  }

  bool parse_literal(JsonValue& out, std::string& error) {
    if (s_.compare(pos_, 4, "true") == 0) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    return fail(error, "unknown literal");
  }

  bool parse_null(JsonValue& out, std::string& error) {
    if (s_.compare(pos_, 4, "null") == 0) {
      out.kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return fail(error, "unknown literal");
  }

  bool parse_number(JsonValue& out, std::string& error) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
    bool integral = true;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) {
      return fail(error, "expected number");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::stod(s_.substr(start, pos_ - start));
    out.number_is_integer = integral;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Schema checks.
// ---------------------------------------------------------------------------

bool expect(bool cond, const std::string& what, std::string& error) {
  if (!cond && error.empty()) error = what;
  return cond;
}

bool check_histogram(const std::string& name, const JsonValue& h,
                     std::string& error) {
  if (!expect(h.kind == JsonValue::Kind::kObject,
              "histogram '" + name + "' is not an object", error)) {
    return false;
  }
  for (const char* field : {"count", "total", "min", "max", "mean"}) {
    const JsonValue* v = h.find(field);
    if (!expect(v != nullptr && v->kind == JsonValue::Kind::kNumber,
                "histogram '" + name + "' missing numeric field '" +
                    field + "'",
                error)) {
      return false;
    }
  }
  // Quantile fields are optional (artifacts written before they existed
  // stay valid) but must be numeric when present.
  for (const char* field : {"p50", "p95", "p99"}) {
    const JsonValue* v = h.find(field);
    if (v != nullptr &&
        !expect(v->kind == JsonValue::Kind::kNumber,
                "histogram '" + name + "' field '" + field +
                    "' is not a number",
                error)) {
      return false;
    }
  }
  const JsonValue* b = h.find("buckets");
  if (!expect(b != nullptr && b->kind == JsonValue::Kind::kArray,
              "histogram '" + name + "' missing buckets array", error)) {
    return false;
  }
  if (!expect(b->array.size() == static_cast<std::size_t>(kHistogramBuckets),
              "histogram '" + name + "' bucket array has wrong length",
              error)) {
    return false;
  }
  for (const auto& e : b->array) {
    if (!expect(e.kind == JsonValue::Kind::kNumber && e.number_is_integer,
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
    append_escaped(out, meta[i].first);
    out += ": ";
    append_escaped(out, meta[i].second);
  }
  out += meta.empty() ? "},\n" : "\n  },\n";

  out += "  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_escaped(out, snap.counters[i].name);
    out += ": " + format_int(snap.counters[i].value);
  }
  out += snap.counters.empty() ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_escaped(out, snap.gauges[i].name);
    out += ": " + format_double(snap.gauges[i].value);
  }
  out += snap.gauges.empty() ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    out += i == 0 ? "\n    " : ",\n    ";
    append_escaped(out, h.name);
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
    append_escaped(out, s.path);
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
  JsonValue doc;
  JsonParser parser(json);
  if (!parser.parse(doc, res.error)) return res;
  std::string& error = res.error;

  if (!expect(doc.kind == JsonValue::Kind::kObject,
              "document root is not an object", error)) {
    return res;
  }
  const JsonValue* schema = doc.find("schema");
  if (!expect(schema != nullptr &&
                  schema->kind == JsonValue::Kind::kString &&
                  schema->string == "te-obs-v1",
              "missing or wrong schema tag (want \"te-obs-v1\")", error)) {
    return res;
  }

  const JsonValue* meta = doc.find("meta");
  if (!expect(meta != nullptr && meta->kind == JsonValue::Kind::kObject,
              "missing meta object", error)) {
    return res;
  }
  for (const auto& [k, v] : meta->object) {
    if (!expect(v.kind == JsonValue::Kind::kString,
                "meta entry '" + k + "' is not a string", error)) {
      return res;
    }
  }

  const JsonValue* counters = doc.find("counters");
  if (!expect(counters != nullptr &&
                  counters->kind == JsonValue::Kind::kObject,
              "missing counters object", error)) {
    return res;
  }
  for (const auto& [k, v] : counters->object) {
    if (!expect(v.kind == JsonValue::Kind::kNumber && v.number_is_integer,
                "counter '" + k + "' is not an integer", error)) {
      return res;
    }
  }

  const JsonValue* gauges = doc.find("gauges");
  if (!expect(gauges != nullptr && gauges->kind == JsonValue::Kind::kObject,
              "missing gauges object", error)) {
    return res;
  }
  for (const auto& [k, v] : gauges->object) {
    if (!expect(v.kind == JsonValue::Kind::kNumber,
                "gauge '" + k + "' is not a number", error)) {
      return res;
    }
  }

  const JsonValue* hists = doc.find("histograms");
  if (!expect(hists != nullptr && hists->kind == JsonValue::Kind::kObject,
              "missing histograms object", error)) {
    return res;
  }
  for (const auto& [k, v] : hists->object) {
    if (!check_histogram(k, v, error)) return res;
  }

  const JsonValue* spans = doc.find("spans");
  if (!expect(spans != nullptr && spans->kind == JsonValue::Kind::kArray,
              "missing spans array", error)) {
    return res;
  }
  for (const auto& s : spans->array) {
    if (!expect(s.kind == JsonValue::Kind::kObject, "span is not an object",
                error)) {
      return res;
    }
    const JsonValue* path = s.find("path");
    if (!expect(path != nullptr && path->kind == JsonValue::Kind::kString,
                "span missing string 'path'", error)) {
      return res;
    }
    for (const char* field : {"depth", "start_seconds", "duration_seconds"}) {
      const JsonValue* f = s.find(field);
      if (!expect(f != nullptr && f->kind == JsonValue::Kind::kNumber,
                  "span missing numeric field '" + std::string(field) + "'",
                  error)) {
        return res;
      }
    }
  }

  res.ok = true;
  res.error.clear();
  return res;
}

std::optional<double> read_export_histogram_quantile(
    const std::string& json, const std::string& name, int percentile) {
  if (percentile != 50 && percentile != 95 && percentile != 99) {
    return std::nullopt;
  }
  JsonValue doc;
  std::string error;
  JsonParser parser(json);
  if (!parser.parse(doc, error)) return std::nullopt;
  if (doc.kind != JsonValue::Kind::kObject) return std::nullopt;
  const JsonValue* hists = doc.find("histograms");
  if (hists == nullptr || hists->kind != JsonValue::Kind::kObject) {
    return std::nullopt;
  }
  const JsonValue* h = hists->find(name);
  if (h == nullptr || h->kind != JsonValue::Kind::kObject) {
    return std::nullopt;
  }
  const JsonValue* q = h->find("p" + std::to_string(percentile));
  if (q == nullptr || q->kind != JsonValue::Kind::kNumber) {
    return std::nullopt;
  }
  return q->number;
}

std::optional<std::vector<std::pair<std::string, double>>>
read_export_counters(const std::string& json, const std::string& prefix) {
  JsonValue doc;
  std::string error;
  JsonParser parser(json);
  if (!parser.parse(doc, error)) return std::nullopt;
  if (doc.kind != JsonValue::Kind::kObject) return std::nullopt;
  const JsonValue* counters = doc.find("counters");
  if (counters == nullptr || counters->kind != JsonValue::Kind::kObject) {
    return std::nullopt;
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, v] : counters->object) {
    if (name.starts_with(prefix) && v.kind == JsonValue::Kind::kNumber) {
      out.emplace_back(name, v.number);
    }
  }
  return out;
}

std::optional<double> read_export_gauge(const std::string& json,
                                        const std::string& name) {
  JsonValue doc;
  std::string error;
  JsonParser parser(json);
  if (!parser.parse(doc, error)) return std::nullopt;
  if (doc.kind != JsonValue::Kind::kObject) return std::nullopt;
  const JsonValue* gauges = doc.find("gauges");
  if (gauges == nullptr || gauges->kind != JsonValue::Kind::kObject) {
    return std::nullopt;
  }
  const JsonValue* g = gauges->find(name);
  if (g == nullptr || g->kind != JsonValue::Kind::kNumber) {
    return std::nullopt;
  }
  return g->number;
}

}  // namespace te::obs
