#pragma once
// The one JSON reader and string escaper of the library (RFC 8259, strict).
//
// Everything that reads JSON -- te-obs-v1 metric documents (obs export
// validation and the read_export_* lookups), the serve wire protocol and
// serve_cli's response check -- parses through json::parse, and everything
// that writes a JSON string goes through json::append_escaped. Input is
// treated as untrusted: the reader never throws on malformed bytes, and
// what it accepts is a strict subset of RFC 8259:
//
//   * numbers follow the RFC grammar exactly (no '+', '.5', '1.', '01',
//     hex, NaN or Inf) and convert with std::from_chars; a value outside
//     double's range (1e999, 1e-400) is refused, subnormals are kept;
//   * strings decode the RFC escapes, \uXXXX only below 0x80; any other
//     escape and any raw control character (< 0x20) is refused, so two
//     distinct accepted strings never decode to the same bytes;
//   * an object with a repeated key is refused;
//   * arrays and objects nest at most kMaxDepth levels;
//   * only whitespace may follow the document.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace te::json {

/// Nesting bound of parse(): arrays plus objects open at once. te-obs-v1
/// documents nest 4 deep, wire requests 1.
inline constexpr int kMaxDepth = 64;

/// A parsed JSON value (DOM node). Object members keep document order.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// Member `key` of an object; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Member `key` when it is a string / a number, else nullptr / nullopt.
  [[nodiscard]] const std::string* find_string(std::string_view key) const;
  [[nodiscard]] std::optional<double> find_number(std::string_view key) const;
};

/// Parse one whole document. Returns nullopt on any refusal, with a reason
/// and byte offset in `*error` when `error` is non-null. Never throws
/// except std::bad_alloc.
[[nodiscard]] std::optional<Value> parse(std::string_view text,
                                         std::string* error = nullptr);

/// Append `s` as a quoted JSON string: '"' '\\' '\n' '\t' '\r' get short
/// escapes, other bytes below 0x20 \u00xx, everything else is copied.
void append_escaped(std::string& out, std::string_view s);

}  // namespace te::json
