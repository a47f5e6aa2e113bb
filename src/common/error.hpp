// Error handling primitives shared by every Eugene module.
//
// Eugene follows the C++ Core Guidelines error model: programming errors
// (violated preconditions) and unrecoverable runtime failures throw
// `eugene::Error`; recoverable conditions are expressed in return types.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace eugene {

/// Base exception for all Eugene failures. Carries a human-readable message
/// that includes the failing source location when raised via EUGENE_CHECK.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an API precondition is violated by the caller.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when an internal invariant fails (a bug in Eugene itself).
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// Thrown when durable state read back from disk fails validation: bad
/// magic, unsupported format version, truncation, or a CRC mismatch
/// (DESIGN.md §9 "Durability model"). Recoverable by the caller: fall back
/// to an older snapshot or rebuild the artifact — never load garbage.
class CorruptionError : public Error {
 public:
  explicit CorruptionError(const std::string& what) : Error(what) {}
};

/// Thrown when the operating system refuses a filesystem operation (open,
/// write, fsync, rename) on a durability path. Distinct from
/// CorruptionError: the data is fine, the environment is not.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

namespace detail {

template <typename E>
[[noreturn]] void raise(const char* file, int line, const char* expr,
                        const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw E(os.str());
}

}  // namespace detail
}  // namespace eugene

/// Validate a caller-supplied precondition; throws eugene::InvalidArgument.
/// Internal invariants use EUGENE_CHECK / EUGENE_DCHECK from common/check.hpp.
#define EUGENE_REQUIRE(cond, msg)                                              \
  do {                                                                         \
    if (!(cond))                                                               \
      ::eugene::detail::raise<::eugene::InvalidArgument>(__FILE__, __LINE__,   \
                                                         #cond, (msg));        \
  } while (false)
