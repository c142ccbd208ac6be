#include "te/serve/wire.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>

#include "te/util/json.hpp"

namespace te::serve {

namespace {

using json::Value;

std::string error_line(const std::string& message) {
  std::string out = "{\"ok\":false,\"error\":";
  json::append_escaped(out, message);
  return out + "}";
}

/// Required integer field in [lo, hi], throwing InvalidArgument with a
/// protocol-level message when absent, non-finite, fractional or out of
/// range. The range check MUST precede the cast: static_cast<int> of a
/// double outside int's range (1e300, NaN, inf) is undefined behavior, not
/// an exception the handle_line try/catch could turn into an error line.
int required_int(const Value& request, const std::string& key, int lo,
                 int hi) {
  const auto v = request.find_number(key);
  TE_REQUIRE(v.has_value(),
             "missing numeric field '" << key << "'");
  TE_REQUIRE(std::isfinite(*v) && *v == std::floor(*v),
             "field '" << key << "' is not a finite integer");
  TE_REQUIRE(*v >= static_cast<double>(lo) && *v <= static_cast<double>(hi),
             "field '" << key << "' must be in [" << lo << ", " << hi
                       << "]");
  return static_cast<int>(*v);
}

/// Unique entry count of a symmetric (order, dim) tensor -- the values
/// one tensor stores on every tier -- C(dim + order - 1, order), saturated
/// at `cap` so the multiplication cannot overflow.
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

std::string handle_submit(Server<float>& server, const Value& request) {
  const std::string* tenant = request.find_string("tenant");
  TE_REQUIRE(tenant != nullptr, "missing string field 'tenant'");
  const std::string* tier_field = request.find_string("tier");
  const std::string tier_name = tier_field ? *tier_field : "general";
  const auto tier = wire_tier(tier_name);
  TE_REQUIRE(tier.has_value(), "unknown tier '" << tier_name << "'");
  // Protocol-level bounds: the wire is untrusted, so every generator knob
  // is range-checked before BatchProblem::random allocates anything, and
  // the combined per-request tensor footprint is capped so huge-but-
  // individually-plausible (order, dim, tensors) combinations cannot
  // trigger unbounded allocations either.
  const int tensors = required_int(request, "tensors", 1, 4096);
  const int starts = required_int(request, "starts", 1, 1024);
  const int order = required_int(request, "order", 3, 8);
  const int dim = required_int(request, "dim", 2, 64);
  constexpr std::uint64_t kMaxRequestValues = std::uint64_t{1} << 24;
  const std::uint64_t total =
      static_cast<std::uint64_t>(tensors) *
      symmetric_entries_capped(order, dim, kMaxRequestValues);
  TE_REQUIRE(total <= kMaxRequestValues,
             "request exceeds the wire size budget: " << tensors
                 << " tensors of order " << order << ", dim " << dim);
  auto problem = batch::BatchProblem<float>::random(
      static_cast<std::uint64_t>(required_int(
          request, "seed", 0, std::numeric_limits<int>::max())),
      tensors, starts, order, dim);
  const SubmitOutcome out =
      server.submit(*tenant, std::move(problem), *tier);
  if (!out.accepted) return error_line(out.reason);
  return "{\"ok\":true,\"ticket\":" + std::to_string(out.ticket) + "}";
}

std::string status_line(const Server<float>& server, Ticket t) {
  const RequestStatus st = server.poll(t);
  std::string tenant;
  json::append_escaped(tenant, st.tenant);
  std::ostringstream os;
  os << "{\"ok\":true,\"state\":\"" << request_state_name(st.state)
     << "\",\"tenant\":" << tenant << ",\"shard\":" << st.shard
     << ",\"chunks_total\":" << st.chunks_total
     << ",\"chunks_done\":" << st.chunks_done
     << ",\"chunks_restored\":" << st.chunks_restored
     << ",\"evicted\":" << (st.evicted ? "true" : "false");
  if (st.state == RequestState::kDone && !st.evicted) {
    // First result slot's eigenvalue: enough for a client to check it got
    // real numbers back (full results stay in-process; an evicted
    // request's result storage is gone).
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

std::optional<kernels::Tier> wire_tier(const std::string& name) {
  // Serve has no JIT acquire path, so "jit" is refused like an unknown name.
  const auto tier = kernels::tier_from_name(name);
  if (tier == kernels::Tier::kJit) return std::nullopt;
  return tier;
}

std::string handle_line(Server<float>& server, const std::string& line,
                        std::string* diagnostic) {
  try {
    std::string error;
    const auto request = json::parse(line, &error);
    TE_REQUIRE(request.has_value(), "malformed JSON: " << error);
    TE_REQUIRE(request->kind == Value::Kind::kObject,
               "a request is a JSON object");
    for (const auto& [key, v] : request->object) {
      TE_REQUIRE(v.kind != Value::Kind::kObject &&
                     v.kind != Value::Kind::kArray,
                 "field '" << key << "' is nested; requests are flat");
    }
    const std::string* op = request->find_string("op");
    TE_REQUIRE(op != nullptr, "missing string field 'op'");
    if (*op == "submit") return handle_submit(server, *request);
    if (*op == "stats") return handle_stats(server);
    if (*op == "poll" || *op == "wait" || *op == "cancel") {
      const Ticket t = required_int(*request, "ticket", 0,
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
  } catch (const InvalidArgument& e) {
    if (diagnostic != nullptr) *diagnostic = e.what();
    return error_line(std::string(e.message()));
  } catch (const std::exception& e) {
    if (diagnostic != nullptr) *diagnostic = e.what();
    return error_line("internal error");
  }
  return error_line("unreachable");
}

}  // namespace te::serve
