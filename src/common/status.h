#ifndef BQE_COMMON_STATUS_H_
#define BQE_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace bqe {

/// Canonical error codes used across the library. Follows the RocksDB/Arrow
/// convention of returning rich statuses rather than throwing exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kNotCovered,            ///< Query is not covered by the access schema.
  kConstraintViolation,   ///< Dataset violates an access constraint.
  kParseError,            ///< SQL / constraint text could not be parsed.
  kUnimplemented,
  kInternal,
  kResourceExhausted,     ///< Load shed: a bounded queue is full; retry later.
  kUnavailable,           ///< The service is shut down.
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. All fallible public APIs in BQE return Status or
/// Result<T>; exceptions never cross the library boundary.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotCovered(std::string msg) {
    return Status(StatusCode::kNotCovered, std::move(msg));
  }
  static Status ConstraintViolation(std::string msg) {
    return Status(StatusCode::kConstraintViolation, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Holds either a value of type T or an error Status. Mirrors
/// arrow::Result / absl::StatusOr.
template <typename T>
class Result {
 public:
  /// Implicit from value for ergonomic `return value;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status. It is a programming error to wrap an OK
  /// status; that is reported as an internal error.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Pre-condition: ok(). Asserted in debug builds.
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` when in error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

namespace internal {
inline const Status& ToStatus(const Status& s) { return s; }
template <typename T>
const Status& ToStatus(const Result<T>& r) {
  return r.status();
}
}  // namespace internal

}  // namespace bqe

#define BQE_CONCAT_IMPL(a, b) a##b
#define BQE_CONCAT(a, b) BQE_CONCAT_IMPL(a, b)

/// Evaluates `expr` (a Status or Result); returns its Status on error.
#define BQE_RETURN_IF_ERROR(expr)                              \
  do {                                                         \
    auto&& bqe_status_like_ = (expr);                          \
    if (!bqe_status_like_.ok()) {                              \
      return ::bqe::internal::ToStatus(bqe_status_like_);      \
    }                                                          \
  } while (false)

/// Evaluates `rexpr` (a Result<T>); on success assigns its value to `lhs`,
/// on error returns the Status.
#define BQE_ASSIGN_OR_RETURN(lhs, rexpr)                          \
  BQE_ASSIGN_OR_RETURN_IMPL(BQE_CONCAT(bqe_result_, __LINE__), lhs, rexpr)

#define BQE_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                              \
  if (!tmp.ok()) {                                 \
    return tmp.status();                           \
  }                                                \
  lhs = std::move(tmp).value()

#endif  // BQE_COMMON_STATUS_H_
