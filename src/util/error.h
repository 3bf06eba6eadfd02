// Error handling primitives for pcal.
//
// The library reports contract violations and invalid configurations by
// throwing pcal::Error.  Hot simulation paths use PCAL_ASSERT, which compiles
// to a cheap branch and is kept enabled in release builds: a trace-driven
// simulator that silently corrupts indices produces plausible-looking wrong
// tables, which is worse than an abort.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace pcal {

/// Base exception for all pcal errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a user-supplied configuration is structurally invalid
/// (e.g. non-power-of-two cache size, zero banks).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// Thrown on malformed input files (trace files, serialized tables).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// Thrown when a sweep job exceeds its JobPolicy deadline.  Raised from
/// the cooperative cancellation points (trace-batch boundaries, interval
/// observers, the fault-injection hang loop).
class JobTimeoutError : public Error {
 public:
  explicit JobTimeoutError(const std::string& what) : Error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace detail
}  // namespace pcal

/// Always-on invariant check; throws pcal::Error on failure.
#define PCAL_ASSERT(expr)                                                   \
  do {                                                                      \
    if (!(expr))                                                            \
      ::pcal::detail::throw_check_failure(#expr, __FILE__, __LINE__, ""); \
  } while (0)

/// Invariant check with a formatted message (streamed).
#define PCAL_ASSERT_MSG(expr, msg)                                       \
  do {                                                                   \
    if (!(expr)) {                                                       \
      std::ostringstream pcal_assert_os_;                                \
      pcal_assert_os_ << msg;                                            \
      ::pcal::detail::throw_check_failure(#expr, __FILE__, __LINE__,     \
                                          pcal_assert_os_.str());        \
    }                                                                    \
  } while (0)

/// Configuration validation helper: throws ConfigError with the message.
#define PCAL_CONFIG_CHECK(expr, msg)                  \
  do {                                                \
    if (!(expr)) {                                    \
      std::ostringstream pcal_cfg_os_;                \
      pcal_cfg_os_ << msg;                            \
      throw ::pcal::ConfigError(pcal_cfg_os_.str());  \
    }                                                 \
  } while (0)
