#pragma once
// Line-delimited JSON wire protocol of the serve socket front-end.
//
// One request per line, one response per line -- the framing a CLI, netcat
// or a test can speak without a protocol library. Requests are flat JSON
// objects with an "op" field:
//
//   {"op":"submit","tenant":"a","seed":1,"tensors":8,"starts":4,
//    "order":3,"dim":4,"tier":"general"}   -> {"ok":true,"ticket":0}
//   {"op":"poll","ticket":0}    -> {"ok":true,"state":"queued",...}
//   {"op":"wait","ticket":0}    -> {"ok":true,"state":"done","lambda00":..}
//   {"op":"cancel","ticket":0}  -> {"ok":true,"cancelled":true}
//   {"op":"stats"}              -> {"ok":true,"submitted":..,...}
//
// poll and wait report "evicted":true, and no lambda00, for a request the
// server's completed_retention window has already released.
//
// Submit ships a generator spec (seed/tensors/starts/order/dim), not tensor
// payloads: the service solves BatchProblem::random(seed, ...), which is
// deterministic, so client and server agree on the problem without moving
// megabytes through the socket. Errors (including admission rejections)
// come back as {"ok":false,"error":"..."}; a malformed line never kills the
// server. Each line is parsed once by the library's strict JSON reader
// (te/util/json.hpp: RFC 8259 numbers, escapes decoded exactly or refused,
// no duplicate keys, nothing after the object) and must be a flat object:
// a line that is not an object, or has a nested object or array value, is
// refused. Fields are looked up at the top level only. The socket front-end
// refuses a line longer than 64 KiB.

#include <optional>
#include <string>

#include "te/serve/server.hpp"

namespace te::serve {

/// Execute one protocol line against a server; returns the response line
/// (no trailing newline): always one JSON object with an "ok" field. Never
/// throws: failures become error responses. An error reply carries only
/// the precondition's own message (InvalidArgument::message()) or, for any
/// other exception, "internal error" -- never a source path or line. When
/// `diagnostic` is given, a failure also stores the full what() there.
[[nodiscard]] std::string handle_line(Server<float>& server,
                                      const std::string& line,
                                      std::string* diagnostic = nullptr);

/// Kernel tier by protocol name ("general", "precomputed", ...); every
/// tier but jit, which needs an acquire step serve does not run.
[[nodiscard]] std::optional<kernels::Tier> wire_tier(const std::string& name);

}  // namespace te::serve
