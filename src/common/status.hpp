// Lightweight Status / Result<T> error handling.
//
// Fallible operations across module boundaries return `Status` or
// `Result<T>` instead of throwing; exceptions are reserved for programming
// errors surfaced by assertions. This keeps the enclave boundary (which, on
// real SGX, cannot propagate C++ exceptions) honest in the simulation too.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace xsearch {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kResourceExhausted,
  kPermissionDenied,
  kUnavailable,
  kDeadlineExceeded,
  kDataLoss,
  kInternal,
  // Typed load-shedding / dependency-health statuses (failure-domain layer):
  // kOverloaded  - the callee refused the work to protect itself (queue full,
  //                queued past its deadline); retry later, with backoff.
  // kUpstreamDown - the callee's own dependency is unreachable or its circuit
  //                breaker is open; retrying the callee soon will not help.
  kOverloaded,
  kUpstreamDown,
};

/// Human-readable name of a status code, e.g. "INVALID_ARGUMENT".
[[nodiscard]] std::string_view status_code_name(StatusCode code);

/// A status code plus an optional diagnostic message.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status ok() { return Status(); }

  [[nodiscard]] bool is_ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// "OK" or "CODE_NAME: message".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

[[nodiscard]] inline Status invalid_argument(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
[[nodiscard]] inline Status not_found(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
[[nodiscard]] inline Status failed_precondition(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
[[nodiscard]] inline Status resource_exhausted(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}
[[nodiscard]] inline Status permission_denied(std::string msg) {
  return {StatusCode::kPermissionDenied, std::move(msg)};
}
[[nodiscard]] inline Status unavailable(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}
[[nodiscard]] inline Status deadline_exceeded(std::string msg) {
  return {StatusCode::kDeadlineExceeded, std::move(msg)};
}
[[nodiscard]] inline Status data_loss(std::string msg) {
  return {StatusCode::kDataLoss, std::move(msg)};
}
[[nodiscard]] inline Status internal_error(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}
[[nodiscard]] inline Status overloaded(std::string msg) {
  return {StatusCode::kOverloaded, std::move(msg)};
}
[[nodiscard]] inline Status upstream_down(std::string msg) {
  return {StatusCode::kUpstreamDown, std::move(msg)};
}

/// Decodes a wire byte back into a StatusCode; unknown bytes (a newer peer's
/// codes) degrade to kInternal rather than being misread as something typed.
[[nodiscard]] StatusCode status_code_from_wire(std::uint8_t raw);

/// Either a value of type T or an error Status. Accessing `value()` on an
/// error result is a programming error (checked by assertion).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}                 // NOLINT(google-explicit-constructor)
  Result(Status status) : data_(std::move(status)) {           // NOLINT(google-explicit-constructor)
    // assert, not XS_CHECK: every error return on every path builds a Result.
    assert(!std::get<Status>(data_).is_ok() && "OK status carries no value");
  }

  [[nodiscard]] bool is_ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return is_ok(); }

  // The accessors assert, not XS_CHECK: every unwrap on the query path
  // passes here, always after an is_ok() test by the caller.
  [[nodiscard]] const T& value() const& {
    assert(is_ok());
    return std::get<T>(data_);
  }
  [[nodiscard]] T& value() & {
    assert(is_ok());
    return std::get<T>(data_);
  }
  [[nodiscard]] T&& value() && {
    assert(is_ok());
    return std::get<T>(std::move(data_));
  }

  [[nodiscard]] Status status() const {
    return is_ok() ? Status::ok() : std::get<Status>(data_);
  }

  /// Value if OK, otherwise `fallback`.
  [[nodiscard]] T value_or(T fallback) const& {
    return is_ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> data_;
};

}  // namespace xsearch

/// Propagates a non-OK Status from an expression, early-returning it.
#define XS_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::xsearch::Status xs_status_ = (expr);        \
    if (!xs_status_.is_ok()) return xs_status_;   \
  } while (false)
