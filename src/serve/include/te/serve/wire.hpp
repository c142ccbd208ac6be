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
// Submit ships a generator spec (seed/tensors/starts/order/dim), not tensor
// payloads: the service solves BatchProblem::random(seed, ...), which is
// deterministic, so client and server agree on the problem without moving
// megabytes through the socket. Errors (including admission rejections)
// come back as {"ok":false,"error":"..."}; a malformed line never kills the
// server. The parser handles exactly the flat object subset the protocol
// uses -- it is not a general JSON reader.

#include <optional>
#include <string>

#include "te/serve/server.hpp"

namespace te::serve {

/// Execute one protocol line against a server; returns the response line
/// (no trailing newline). Never throws: failures become error responses.
[[nodiscard]] std::string handle_line(Server<float>& server,
                                      const std::string& line);

/// Flat-object field extraction (exposed for tests and the CLI's response
/// handling). Returns nullopt when the key is absent or the wrong shape.
/// wire_string decodes the RFC 8259 escapes (\uXXXX below 0x80 only) and
/// returns nullopt for any escape it does not decode, so distinct JSON
/// strings never decode to the same std::string. wire_number accepts only
/// the RFC 8259 number grammar, ending at whitespace, ',' or '}', and
/// refuses a value out of double's range.
[[nodiscard]] std::optional<std::string> wire_string(const std::string& json,
                                                     const std::string& key);
[[nodiscard]] std::optional<double> wire_number(const std::string& json,
                                                const std::string& key);

/// Kernel tier by protocol name ("general", "precomputed", ...); every
/// tier but jit, which needs an acquire step serve does not run.
[[nodiscard]] std::optional<kernels::Tier> wire_tier(const std::string& name);

}  // namespace te::serve
