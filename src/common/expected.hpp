// Lightweight Expected<T> for recoverable errors.
//
// The environment distinguishes (Core Guidelines I.10/E.x style) between
// contract violations — programmer bugs, handled with assertions — and
// runtime conditions a caller must handle: authentication failure, no
// feasible host for a task, a site database miss, a channel to a dead host.
// The latter travel as Expected<T>, which either holds a value or an Error.
#pragma once

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace vdce::common {

/// Machine-readable error category; `message` carries the human detail.
enum class ErrorCode {
  kNotFound,
  kAlreadyExists,
  kAuthFailed,
  kPermissionDenied,
  kInvalidArgument,
  kNoFeasibleResource,
  kQuotaExceeded,
  kBudgetExceeded,
  kReservationConflict,
  kHostDown,
  kCycleDetected,
  kParseError,
  kIoError,
  kTimeout,
  kCancelled,
  kInternal,
};

/// Convert a code to its stable string name (used in logs and test output).
constexpr const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kAlreadyExists: return "already_exists";
    case ErrorCode::kAuthFailed: return "auth_failed";
    case ErrorCode::kPermissionDenied: return "permission_denied";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kNoFeasibleResource: return "no_feasible_resource";
    case ErrorCode::kQuotaExceeded: return "quota_exceeded";
    case ErrorCode::kBudgetExceeded: return "budget_exceeded";
    case ErrorCode::kReservationConflict: return "reservation_conflict";
    case ErrorCode::kHostDown: return "host_down";
    case ErrorCode::kCycleDetected: return "cycle_detected";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kIoError: return "io_error";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

struct Error {
  ErrorCode code;
  std::string message;

  [[nodiscard]] std::string to_string() const {
    return std::string(common::to_string(code)) + ": " + message;
  }
};

/// Minimal std::expected stand-in (toolchain ships C++20 without it).
template <typename T>
class Expected {
 public:
  Expected(T value) : state_(std::move(value)) {}              // NOLINT(google-explicit-constructor)
  Expected(Error error) : state_(std::move(error)) {}          // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool has_value() const noexcept {
    return std::holds_alternative<T>(state_);
  }
  explicit operator bool() const noexcept { return has_value(); }

  [[nodiscard]] T& value() & {
    assert(has_value());
    return std::get<T>(state_);
  }
  [[nodiscard]] const T& value() const& {
    assert(has_value());
    return std::get<T>(state_);
  }
  [[nodiscard]] T&& value() && {
    assert(has_value());
    return std::get<T>(std::move(state_));
  }

  [[nodiscard]] const Error& error() const {
    assert(!has_value());
    return std::get<Error>(state_);
  }

  [[nodiscard]] T value_or(T fallback) const {
    return has_value() ? std::get<T>(state_) : std::move(fallback);
  }

  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }

 private:
  std::variant<T, Error> state_;
};

/// Expected<void> analogue for operations with no result payload.
class Status {
 public:
  Status() = default;                                    // success
  Status(Error error) : error_(std::move(error)) {}      // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const noexcept { return !error_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] const Error& error() const {
    assert(!ok());
    return *error_;
  }

  static Status success() { return {}; }

 private:
  std::optional<Error> error_;
};

/// For programs (examples, benches, tools) whose setup steps must not fail
/// silently: if `result` holds an error, print it after `what` to stderr and
/// exit(1).  Library code returns the error instead.
template <typename T>
void exit_on_error(const Expected<T>& result, const char* what) {
  if (result) return;
  std::fprintf(stderr, "%s: %s\n", what, result.error().to_string().c_str());
  std::exit(1);
}

}  // namespace vdce::common
