#include "te/util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace te::json {

namespace {

class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  bool document(Value& out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    return p_ == s_.size() || fail("trailing bytes after the document");
  }

  std::string error;

 private:
  bool fail(const char* what) {
    error = std::string(what) + " at offset " + std::to_string(p_);
    return false;
  }

  bool eat(char c) {
    if (p_ == s_.size() || s_[p_] != c) return false;
    ++p_;
    return true;
  }

  [[nodiscard]] bool at_digit() const {
    return p_ < s_.size() && s_[p_] >= '0' && s_[p_] <= '9';
  }

  void skip_ws() {
    while (p_ < s_.size() && (s_[p_] == ' ' || s_[p_] == '\t' ||
                              s_[p_] == '\n' || s_[p_] == '\r')) {
      ++p_;
    }
  }

  bool value(Value& out, int depth) {
    if (p_ == s_.size()) return fail("unexpected end of input");
    const char c = s_[p_];
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) return fail("nesting too deep");
      return c == '{' ? object(out, depth + 1) : array(out, depth + 1);
    }
    if (c == '"') {
      out.kind = Value::Kind::kString;
      return string(out.string);
    }
    if (literal("true")) {
      out.kind = Value::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (literal("false")) {
      out.kind = Value::Kind::kBool;
      return true;
    }
    if (literal("null")) return true;  // a fresh Value is null
    return number(out);
  }

  bool literal(std::string_view word) {
    if (s_.substr(p_, word.size()) != word) return false;
    p_ += word.size();
    return true;
  }

  bool object(Value& out, int depth) {
    out.kind = Value::Kind::kObject;
    ++p_;  // '{'
    skip_ws();
    if (eat('}')) return true;
    do {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!eat(':')) return fail("expected ':' in an object");
      skip_ws();
      Value v;
      if (!value(v, depth)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
    } while (eat(','));
    if (!eat('}')) return fail("expected ',' or '}' in an object");
    // Repeated keys: sorted-neighbour check, O(n log n) on hostile input.
    std::vector<std::string_view> keys;
    keys.reserve(out.object.size());
    for (const auto& member : out.object) keys.emplace_back(member.first);
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      return fail("duplicate key in the object ending");
    }
    return true;
  }

  bool array(Value& out, int depth) {
    out.kind = Value::Kind::kArray;
    ++p_;  // '['
    skip_ws();
    if (eat(']')) return true;
    do {
      skip_ws();
      if (!value(out.array.emplace_back(), depth)) return false;
      skip_ws();
    } while (eat(','));
    return eat(']') || fail("expected ',' or ']' in an array");
  }

  bool string(std::string& out) {
    // The RFC escapes, \uXXXX decoded only below 0x80; anything else is
    // refused rather than guessed at.
    static constexpr std::string_view kEscaped = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    if (!eat('"')) return fail("expected a string");
    while (p_ < s_.size()) {
      const char c = s_[p_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in a string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ == s_.size()) break;
      const char e = s_[p_++];
      if (const auto i = kEscaped.find(e); i != std::string_view::npos) {
        out += kDecoded[i];
        continue;
      }
      unsigned code = 0;
      const char* hex = s_.data() + p_;
      if (e != 'u' || s_.size() - p_ < 4 ||
          std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4 ||
          code >= 0x80) {
        return fail("unsupported escape in a string");
      }
      out += static_cast<char>(code);
      p_ += 4;
    }
    return fail("unterminated string");
  }

  bool number(Value& out) {
    // -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
    const std::size_t start = p_;
    const auto digits = [&] {
      if (!at_digit()) return false;
      while (at_digit()) ++p_;
      return true;
    };
    eat('-');
    if (!at_digit()) return fail("expected a value");
    if (!eat('0')) digits();
    if (eat('.') && !digits()) return fail("expected a digit after '.'");
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return fail("expected a digit in the exponent");
    }
    const char* first = s_.data() + start;
    const char* last = s_.data() + p_;
    const auto [end, ec] = std::from_chars(first, last, out.number);
    if (ec != std::errc() || end != last) {
      return fail("number out of double's range");
    }
    out.kind = Value::Kind::kNumber;
    return true;
  }

  std::string_view s_;
  std::size_t p_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::string* Value::find_string(std::string_view key) const {
  const Value* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? &v->string : nullptr;
}

std::optional<double> Value::find_number(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || v->kind != Kind::kNumber) return std::nullopt;
  return v->number;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  Reader reader(text);
  Value doc;
  if (reader.document(doc)) return doc;
  if (error != nullptr) *error = std::move(reader.error);
  return std::nullopt;
}

void append_escaped(std::string& out, std::string_view s) {
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

}  // namespace te::json
