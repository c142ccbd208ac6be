#include "te/serve/wire.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string_view>

namespace te::serve {

namespace {

/// Position just past `"key":` in a flat object, or npos.
std::size_t value_pos(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  std::size_t at = 0;
  while ((at = json.find(needle, at)) != std::string::npos) {
    std::size_t p = at + needle.size();
    while (p < json.size() &&
           std::isspace(static_cast<unsigned char>(json[p]))) {
      ++p;
    }
    if (p < json.size() && json[p] == ':') {
      ++p;
      while (p < json.size() &&
             std::isspace(static_cast<unsigned char>(json[p]))) {
        ++p;
      }
      return p;
    }
    at += needle.size();  // matched a value, not a key; keep scanning
  }
  return std::string::npos;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string error_line(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + json_escape(message) + "\"}";
}

/// Required integer field in [lo, hi], throwing InvalidArgument with a
/// protocol-level message when absent, non-finite, fractional or out of
/// range. The range check MUST precede the cast: static_cast<int> of a
/// double outside int's range (1e300, NaN, inf) is undefined behavior, not
/// an exception the handle_line try/catch could turn into an error line.
int required_int(const std::string& json, const std::string& key, int lo,
                 int hi) {
  const auto v = wire_number(json, key);
  TE_REQUIRE(v.has_value(),
             "missing or non-JSON numeric field '" << key << "'");
  TE_REQUIRE(std::isfinite(*v) && *v == std::floor(*v),
             "field '" << key << "' is not a finite integer");
  TE_REQUIRE(*v >= static_cast<double>(lo) && *v <= static_cast<double>(hi),
             "field '" << key << "' must be in [" << lo << ", " << hi
                       << "]");
  return static_cast<int>(*v);
}

/// Unique entry count of a symmetric (order, dim) tensor -- the blocked
/// storage allocation unit -- C(dim + order - 1, order), saturated at
/// `cap` so the multiplication cannot overflow.
std::uint64_t symmetric_entries_capped(int order, int dim,
                                       std::uint64_t cap) {
  std::uint64_t n = 1;
  for (int k = 1; k <= order; ++k) {
    n = n * static_cast<std::uint64_t>(dim - 1 + k) /
        static_cast<std::uint64_t>(k);
    if (n > cap) return cap + 1;
  }
  return n;
}

std::string handle_submit(Server<float>& server, const std::string& line) {
  const auto tenant = wire_string(line, "tenant");
  TE_REQUIRE(tenant.has_value(), "missing string field 'tenant'");
  const auto tier_name = wire_string(line, "tier");
  const auto tier = wire_tier(tier_name.value_or("general"));
  TE_REQUIRE(tier.has_value(),
             "unknown tier '" << tier_name.value_or("general") << "'");
  // Protocol-level bounds: the wire is untrusted, so every generator knob
  // is range-checked before BatchProblem::random allocates anything, and
  // the combined per-request tensor footprint is capped so huge-but-
  // individually-plausible (order, dim, tensors) combinations cannot
  // trigger unbounded allocations either.
  const int tensors = required_int(line, "tensors", 1, 4096);
  const int starts = required_int(line, "starts", 1, 1024);
  const int order = required_int(line, "order", 3, 8);
  const int dim = required_int(line, "dim", 2, 64);
  constexpr std::uint64_t kMaxRequestValues = std::uint64_t{1} << 24;
  const std::uint64_t total =
      static_cast<std::uint64_t>(tensors) *
      symmetric_entries_capped(order, dim, kMaxRequestValues);
  TE_REQUIRE(total <= kMaxRequestValues,
             "request exceeds the wire size budget: " << tensors
                 << " tensors of order " << order << ", dim " << dim);
  auto problem = batch::BatchProblem<float>::random(
      static_cast<std::uint64_t>(required_int(
          line, "seed", 0, std::numeric_limits<int>::max())),
      tensors, starts, order, dim);
  const SubmitOutcome out =
      server.submit(*tenant, std::move(problem), *tier);
  if (!out.accepted) return error_line(out.reason);
  return "{\"ok\":true,\"ticket\":" + std::to_string(out.ticket) + "}";
}

std::string status_line(const Server<float>& server, Ticket t) {
  const RequestStatus st = server.poll(t);
  std::ostringstream os;
  os << "{\"ok\":true,\"state\":\"" << request_state_name(st.state)
     << "\",\"tenant\":\"" << json_escape(st.tenant)
     << "\",\"shard\":" << st.shard
     << ",\"chunks_total\":" << st.chunks_total
     << ",\"chunks_done\":" << st.chunks_done
     << ",\"chunks_restored\":" << st.chunks_restored;
  if (st.state == RequestState::kDone) {
    // First result slot's eigenvalue: enough for a client to check it got
    // real numbers back (full results stay in-process).
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g",
                  static_cast<double>(server.result(t).results.front().lambda));
    os << ",\"lambda00\":" << buf;
  }
  os << "}";
  return os.str();
}

std::string handle_stats(const Server<float>& server) {
  const ServerStats st = server.stats();
  std::ostringstream os;
  os << "{\"ok\":true,\"submitted\":" << st.submitted
     << ",\"rejected\":" << st.rejected << ",\"completed\":" << st.completed
     << ",\"cancelled\":" << st.cancelled << ",\"steps\":" << st.steps
     << ",\"pending_chunks\":" << st.pending_chunks
     << ",\"active_tenants\":" << st.active_tenants
     << ",\"cache_hits\":" << st.cache.hits
     << ",\"cache_misses\":" << st.cache.misses
     << ",\"cache_bytes_resident\":" << st.cache.bytes_resident << "}";
  return os.str();
}

}  // namespace

std::optional<std::string> wire_string(const std::string& json,
                                       const std::string& key) {
  // The RFC 8259 escapes, with \uXXXX decoded only below 0x80 (that covers
  // json_escape's \u00XX). Any other escape is refused rather than guessed
  // at, so two distinct JSON strings never decode to the same bytes.
  static constexpr std::string_view kEscaped = "\"\\/bfnrt";
  static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
  std::size_t p = value_pos(json, key);
  if (p == std::string::npos || p >= json.size() || json[p] != '"') {
    return std::nullopt;
  }
  std::string out;
  for (++p; p < json.size(); ++p) {
    if (json[p] == '"') return out;
    if (json[p] != '\\') {
      out += json[p];
      continue;
    }
    if (++p == json.size()) break;
    if (const auto i = kEscaped.find(json[p]); i != std::string_view::npos) {
      out += kDecoded[i];
      continue;
    }
    unsigned code = 0;
    const char* hex = json.data() + p + 1;
    if (json[p] != 'u' || p + 4 >= json.size() ||
        std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4 ||
        code >= 0x80) {
      return std::nullopt;
    }
    out += static_cast<char>(code);
    p += 4;
  }
  return std::nullopt;  // unterminated string
}

std::optional<double> wire_number(const std::string& json,
                                  const std::string& key) {
  // RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?, and
  // then the value must end. strtod would also take hex, "+4", ".5", "inf"
  // or a numeric prefix like "4abc", and reads the locale's decimal point.
  const std::size_t p = value_pos(json, key);
  if (p == std::string::npos) return std::nullopt;
  const auto digit = [&](std::size_t i) {
    return i < json.size() && json[i] >= '0' && json[i] <= '9';
  };
  const auto digits = [&](std::size_t i) {
    while (digit(i)) ++i;
    return i;
  };
  std::size_t q = p;
  if (q < json.size() && json[q] == '-') ++q;
  if (!digit(q)) return std::nullopt;
  q = json[q] == '0' ? q + 1 : digits(q);
  if (q < json.size() && json[q] == '.') {
    if (!digit(++q)) return std::nullopt;
    q = digits(q);
  }
  if (q < json.size() && (json[q] == 'e' || json[q] == 'E')) {
    ++q;
    if (q < json.size() && (json[q] == '+' || json[q] == '-')) ++q;
    if (!digit(q)) return std::nullopt;
    q = digits(q);
  }
  const bool ends = q < json.size() &&
                   (json[q] == ',' || json[q] == '}' ||
                    std::isspace(static_cast<unsigned char>(json[q])));
  if (!ends) return std::nullopt;
  double v = 0;
  const auto [end, ec] = std::from_chars(json.data() + p, json.data() + q, v);
  if (ec != std::errc() || end != json.data() + q) return std::nullopt;
  return v;
}

std::optional<kernels::Tier> wire_tier(const std::string& name) {
  // Serve has no JIT acquire path, so "jit" is refused like an unknown name.
  const auto tier = kernels::tier_from_name(name);
  if (tier == kernels::Tier::kJit) return std::nullopt;
  return tier;
}

std::string handle_line(Server<float>& server, const std::string& line) {
  try {
    const auto op = wire_string(line, "op");
    TE_REQUIRE(op.has_value(), "missing string field 'op'");
    if (*op == "submit") return handle_submit(server, line);
    if (*op == "stats") return handle_stats(server);
    if (*op == "poll" || *op == "wait" || *op == "cancel") {
      const Ticket t = required_int(line, "ticket", 0,
                                    std::numeric_limits<int>::max());
      if (*op == "wait") server.wait(t);
      if (*op == "cancel") {
        const bool did = server.cancel(t);
        return std::string("{\"ok\":true,\"cancelled\":") +
               (did ? "true" : "false") + "}";
      }
      return status_line(server, t);
    }
    TE_REQUIRE(false, "unknown op '" << *op << "'");
  } catch (const std::exception& e) {
    return error_line(e.what());
  }
  return error_line("unreachable");
}

}  // namespace te::serve
