#pragma once
// Error-handling primitives used throughout the library.
//
// Two tiers, following the convention that hot loops must stay exception-free:
//   TE_REQUIRE(cond, msg)  -- precondition check at API boundaries; throws
//                             te::InvalidArgument. Always on.
//   TE_ASSERT(cond)        -- internal invariant check; active only in debug
//                             builds (compiled out under NDEBUG).

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace te {

/// Thrown when a caller violates a documented precondition. what() is the
/// full diagnostic (for TE_REQUIRE: the failed expression, file and line,
/// then the caller's message); message() is the caller's message alone,
/// the part that is safe to hand to an untrusted peer.
class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;

  /// `what` ends with the caller's message, which starts at `message_pos`.
  InvalidArgument(const std::string& what, std::size_t message_pos)
      : std::invalid_argument(what), message_pos_(message_pos) {}

  /// The caller's message without the expression/file/line prefix, or
  /// "precondition failed" when the check carried no message.
  [[nodiscard]] std::string_view message() const noexcept {
    const std::string_view full(what());
    const std::string_view msg =
        full.substr(std::min(message_pos_, full.size()));
    return msg.empty() ? std::string_view("precondition failed") : msg;
  }

 private:
  std::size_t message_pos_ = 0;
};

/// Thrown by instrumentation layers (the GPU-simulator memory sanitizer)
/// when running in fail-fast mode and a violation is detected. Carries the
/// fully formatted diagnostic (kind, lanes, byte range, kernel) so a CI
/// failure is actionable without re-running under a debugger.
class SanitizerViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

[[noreturn]] inline void throw_invalid_argument(const char* expr,
                                                const char* file, int line,
                                                const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " -- " << msg;
  std::string what = os.str();
  const std::size_t message_pos = what.size() - msg.size();
  throw InvalidArgument(what, message_pos);
}

[[noreturn]] void assert_fail(const char* expr, const char* file, int line);

}  // namespace detail
}  // namespace te

#define TE_REQUIRE(cond, msg)                                              \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::te::detail::throw_invalid_argument(#cond, __FILE__, __LINE__,      \
                                           (std::ostringstream{} << msg)   \
                                               .str());                    \
    }                                                                      \
  } while (0)

#ifdef NDEBUG
#define TE_ASSERT(cond) ((void)0)
#else
#define TE_ASSERT(cond)                                            \
  do {                                                             \
    if (!(cond)) ::te::detail::assert_fail(#cond, __FILE__, __LINE__); \
  } while (0)
#endif
