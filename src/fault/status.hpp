#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <optional>

/// \file status.hpp
/// Error taxonomy of the robustness layer (docs/ROBUSTNESS.md).
///
/// Everything that can go wrong at runtime in a solve — a singular or
/// non-SPD pivot block, a size-mismatched or corrupted message, an
/// injected rank crash, a missed deadline — maps to one ErrorCode and one
/// exception type derived from SolveError, so callers can dispatch on
/// `code()` without parsing strings. The library never reports a runtime
/// numerical/communication failure through `assert` (which is a silent
/// no-op under NDEBUG); dense-kernel shape mismatches throw
/// kShapeMismatch in every build mode (src/la/{gemm,lu}.cpp), so a
/// dimension bug surfaces identically in release and debug runs.
///
/// This module sits below every other library (no la/mpsim/obs
/// dependencies) so all layers share one vocabulary.

namespace ardbt::fault {

/// Every failure class the stack can report.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kSingularPivot,    ///< exactly singular pivot met during a factorization/solve
  kNonSpdPivot,      ///< Cholesky pivot not positive definite
  kBreakdown,        ///< pivot growth above the configured breakdown threshold
  kMessageSize,      ///< received payload size does not match the receive buffer
  kMessageCorrupt,   ///< payload checksum mismatch (detected bit flip)
  kInjectedCrash,    ///< a FaultPlan crashed this rank before a send
  kDeadline,         ///< a blocked receive exceeded its wall-clock deadline
  kInternal,         ///< invariant violation that is not a caller error
  kShapeMismatch,    ///< kernel called with incompatible matrix dimensions
  kInvalidArgument,  ///< malformed user input (e.g. a garbage numeric flag)
  kTagCollision,     ///< two in-flight scans claimed the same message tag
  // Service-boundary outcomes (docs/SERVICE.md). These classify why the
  // admission controller or executor refused/abandoned a request; they are
  // terminal decisions about *this* request, so none of them is transient.
  kDeadlineInfeasible,  ///< admission: the deadline cannot be met even if started now
  kDeadlineExceeded,    ///< executor: the deadline passed while the request was queued
  kOverload,            ///< admission: shed by the overload controller
  kCircuitOpen,         ///< admission: the tenant's circuit breaker is open
  kIo,                  ///< a file could not be opened, read or written, or is malformed
};

/// Stable lowercase name ("ok", "singular-pivot", ...).
std::string_view to_string(ErrorCode code);

/// Transient failures are worth retrying at the run level: the fault was
/// injected into (or detected on) the communication path and a re-run may
/// not hit it again. Numerical failures are deterministic and are not,
/// and neither are service-boundary decisions (a shed or expired request
/// must not be blindly re-queued — the retry-budget machinery decides).
bool is_transient(ErrorCode code);

class Status;

/// Status-level overload: the classification every layer above the raw
/// code should call, so a future split of one code into transient and
/// permanent sub-cases (via the message or a detail field) needs exactly
/// one edit here.
bool is_transient(const Status& status);

/// Lightweight status value for APIs that report rather than throw
/// (per-solve outcomes in the run report).
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }
  static Status error(ErrorCode code, std::string message) {
    return Status(code, std::move(message));
  }

  bool is_ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// Base of every structured runtime failure. Derives from
/// std::runtime_error so existing catch sites keep working.
class SolveError : public std::runtime_error {
 public:
  SolveError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  ErrorCode code() const { return code_; }
  Status status() const { return Status::error(code_, what()); }

 private:
  ErrorCode code_;
};

/// A factorization met a singular (or, for Cholesky, non-SPD) pivot.
/// `block_row` is the block row of the failing pivot block (-1 when the
/// failure is not block structured), `pivot_index` the scalar pivot index
/// inside it, `growth` the pivot-growth factor observed up to the failure.
class SingularPivotError : public SolveError {
 public:
  SingularPivotError(ErrorCode code, const std::string& where, std::int64_t block_row,
                     std::int64_t pivot_index, double growth);

  std::int64_t block_row() const { return block_row_; }
  std::int64_t pivot_index() const { return pivot_index_; }
  double growth() const { return growth_; }

 private:
  std::int64_t block_row_;
  std::int64_t pivot_index_;
  double growth_;
};

/// Pivot growth crossed the breakdown threshold (factorization completed
/// but its accuracy is suspect).
class BreakdownError : public SolveError {
 public:
  BreakdownError(const std::string& where, double growth, double threshold);

  double growth() const { return growth_; }
  double threshold() const { return threshold_; }

 private:
  double growth_;
  double threshold_;
};

/// A dense kernel was handed views with incompatible dimensions. These
/// used to be bare `assert`s that compiled out under NDEBUG and let the
/// kernels write out of bounds; the checks are now always on (a handful of
/// integer compares, invisible next to the O(M^3) work they guard).
class ShapeMismatchError : public SolveError {
 public:
  /// `where` names the kernel ("la::gemm"), `detail` the violated
  /// relation ("a.cols() == b.rows()"), and the dims the offending values.
  ShapeMismatchError(const char* where, const char* detail, std::int64_t got,
                     std::int64_t expected);

  std::int64_t got() const { return got_; }
  std::int64_t expected() const { return expected_; }

 private:
  std::int64_t got_;
  std::int64_t expected_;
};

/// Malformed caller input at an API boundary (a null batch pointer, a
/// non-positive rank count). These are caller bugs rather than runtime
/// faults, but they surface through the same taxonomy so dispatch on
/// `code()` covers every throw site in the stack.
class InvalidArgumentError : public SolveError {
 public:
  /// `where` names the API ("core::Session"), `detail` the violated
  /// precondition ("nranks must be positive").
  InvalidArgumentError(const char* where, const std::string& detail)
      : SolveError(ErrorCode::kInvalidArgument, std::string(where) + ": " + detail) {}
};

/// A file could not be opened, read or written, or its contents are not
/// in the expected format (btds/io.hpp). `path` names the file.
class IoError : public SolveError {
 public:
  IoError(const std::string& what, const std::string& path)
      : SolveError(ErrorCode::kIo, what + ": " + path), path_(path) {}

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Two concurrently in-flight scans (or any two registered users) claimed
/// the same message tag on one rank. Without the registry this is silent
/// message cross-matching: the FIFO mailbox hands scan A a payload that
/// belongs to scan B and both produce garbage. A collision is a protocol
/// bug in the caller's schedule, never a runtime fault, so it is not
/// transient.
class TagCollisionError : public SolveError {
 public:
  TagCollisionError(int rank, int tag)
      : SolveError(ErrorCode::kTagCollision,
                   "rank " + std::to_string(rank) + ": tag " + std::to_string(tag) +
                       " is already registered by an in-flight scan"),
        rank_(rank),
        tag_(tag) {}

  int rank() const { return rank_; }
  int tag() const { return tag_; }

 private:
  int rank_;
  int tag_;
};

/// A typed receive got a payload whose size does not match the buffer.
class MessageSizeError : public SolveError {
 public:
  MessageSizeError(int src, int tag, std::size_t expected_bytes, std::size_t got_bytes);

  int src() const { return src_; }
  int tag() const { return tag_; }
  std::size_t expected_bytes() const { return expected_; }
  std::size_t got_bytes() const { return got_; }

 private:
  int src_;
  int tag_;
  std::size_t expected_;
  std::size_t got_;
};

/// Payload checksum mismatch detected on receive.
class MessageCorruptError : public SolveError {
 public:
  MessageCorruptError(int src, int tag, std::uint64_t expected_crc, std::uint64_t got_crc);

  int src() const { return src_; }
  int tag() const { return tag_; }

 private:
  int src_;
  int tag_;
};

/// A FaultPlan crashed this rank before a send.
class InjectedCrashError : public SolveError {
 public:
  explicit InjectedCrashError(int rank);
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// A blocked receive exceeded its wall-clock deadline (hang detector).
class DeadlineError : public SolveError {
 public:
  DeadlineError(int src, int tag, double waited_seconds);

  int src() const { return src_; }
  int tag() const { return tag_; }
  double waited_seconds() const { return waited_; }

 private:
  int src_;
  int tag_;
  double waited_;
};

/// What the solve driver does when breakdown (or a recoverable fault) is
/// detected. See docs/ROBUSTNESS.md for the full ladder.
enum class BreakdownPolicy : std::uint8_t {
  kFailFast,  ///< surface a structured error immediately
  kRefine,    ///< keep the fast factorization, add iterative refinement
  kFallback,  ///< refine, then escalate to the exact banded-LU path
};

/// Stable lowercase name ("failfast", "refine", "fallback").
std::string_view to_string(BreakdownPolicy policy);

/// Inverse of to_string; nullopt on an unknown name.
std::optional<BreakdownPolicy> parse_breakdown_policy(std::string_view name);

/// Classes of online-watchdog alerts (docs/OBSERVABILITY.md). Alerts are
/// advisory — they become structured log records and `watchdog.*`
/// counters, never exceptions — so the taxonomy lives here beside
/// ErrorCode to keep one shared vocabulary across layers.
enum class AlertKind : std::uint8_t {
  kStraggler,       ///< one rank's wait fraction far above the fleet median
  kDeadlineMiss,    ///< a receive exceeded its deadline during the run
  kArenaPressure,   ///< workspace arena still growing after steady state
  kCostModelDrift,  ///< measured/predicted phase time outside the threshold
  kTraceDrop,       ///< a bounded trace/recorder ring overwrote events
  kShedStorm,       ///< the service shed a large share of offered load
  kBreakerTrip,     ///< a tenant circuit breaker tripped during the run
};

/// Stable lowercase name ("straggler", "deadline-miss", ...).
std::string_view to_string(AlertKind kind);

/// Cheap condition monitoring accumulated while a factorization runs:
/// the extreme pivot magnitudes seen, where the weakest pivot lives, and
/// their ratio as a growth/conditioning proxy. Costs a couple of compares
/// per pivot — never a norm or an inverse — so the sweeps can always
/// leave it on.
struct PivotDiagnostics {
  double min_pivot_abs = std::numeric_limits<double>::infinity();
  double max_pivot_abs = 0.0;
  std::int64_t min_pivot_block_row = -1;  ///< block row holding the weakest pivot
  int singular_info = 0;                  ///< first factorization info != 0, if any

  /// max/min pivot magnitude; infinity once a zero (or no) pivot was seen.
  double growth() const {
    if (singular_info != 0 || min_pivot_abs <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    return max_pivot_abs > 0.0 ? max_pivot_abs / min_pivot_abs : 1.0;
  }

  /// Fold in the pivot extremes of one factored block.
  void observe(double block_min_abs, double block_max_abs, std::int64_t block_row) {
    if (block_min_abs < min_pivot_abs) {
      min_pivot_abs = block_min_abs;
      min_pivot_block_row = block_row;
    }
    if (block_max_abs > max_pivot_abs) max_pivot_abs = block_max_abs;
  }

  /// Merge another accumulator (e.g. the lane factorizations of an ARD
  /// rank).
  void merge(const PivotDiagnostics& o) {
    if (o.min_pivot_abs < min_pivot_abs) {
      min_pivot_abs = o.min_pivot_abs;
      min_pivot_block_row = o.min_pivot_block_row;
    }
    if (o.max_pivot_abs > max_pivot_abs) max_pivot_abs = o.max_pivot_abs;
    if (singular_info == 0) singular_info = o.singular_info;
  }
};

}  // namespace ardbt::fault
