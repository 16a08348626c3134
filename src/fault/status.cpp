#include "src/fault/status.hpp"

#include <cstdio>

namespace ardbt::fault {
namespace {

/// %.6g formatting — std::to_string(double) prints fixed-point, which is
/// unreadable for the huge growth factors these messages carry.
std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string format_pivot_message(ErrorCode code, const std::string& where, std::int64_t block_row,
                                 std::int64_t pivot_index, double growth) {
  std::string msg = where;
  msg += code == ErrorCode::kNonSpdPivot ? ": non-SPD pivot" : ": singular pivot";
  if (block_row >= 0) msg += " at block row " + std::to_string(block_row);
  if (pivot_index >= 0) msg += " (pivot index " + std::to_string(pivot_index) + ")";
  msg += ", growth " + format_double(growth);
  return msg;
}

}  // namespace

std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "ok";
    case ErrorCode::kSingularPivot:
      return "singular-pivot";
    case ErrorCode::kNonSpdPivot:
      return "non-spd-pivot";
    case ErrorCode::kBreakdown:
      return "breakdown";
    case ErrorCode::kMessageSize:
      return "message-size";
    case ErrorCode::kMessageCorrupt:
      return "message-corrupt";
    case ErrorCode::kInjectedCrash:
      return "injected-crash";
    case ErrorCode::kDeadline:
      return "deadline";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kShapeMismatch:
      return "shape-mismatch";
    case ErrorCode::kInvalidArgument:
      return "invalid-argument";
    case ErrorCode::kTagCollision:
      return "tag-collision";
    case ErrorCode::kDeadlineInfeasible:
      return "deadline-infeasible";
    case ErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ErrorCode::kOverload:
      return "overload";
    case ErrorCode::kCircuitOpen:
      return "circuit-open";
    case ErrorCode::kIo:
      return "io";
  }
  return "unknown";
}

std::string_view to_string(AlertKind kind) {
  switch (kind) {
    case AlertKind::kStraggler:
      return "straggler";
    case AlertKind::kDeadlineMiss:
      return "deadline-miss";
    case AlertKind::kArenaPressure:
      return "arena-pressure";
    case AlertKind::kCostModelDrift:
      return "cost-model-drift";
    case AlertKind::kTraceDrop:
      return "trace-drop";
    case AlertKind::kShedStorm:
      return "shed-storm";
    case AlertKind::kBreakerTrip:
      return "breaker-trip";
  }
  return "unknown";
}

bool is_transient(ErrorCode code) {
  switch (code) {
    // Communication-path faults: a re-run sees a clean wire.
    case ErrorCode::kMessageCorrupt:
    case ErrorCode::kInjectedCrash:
    case ErrorCode::kDeadline:
      return true;
    // Numerical failures are deterministic; argument/shape errors are
    // caller bugs; service-boundary decisions (infeasible/expired
    // deadline, shed, open breaker) are terminal for the request; a
    // missing or malformed file stays so on a re-run.
    case ErrorCode::kOk:
    case ErrorCode::kSingularPivot:
    case ErrorCode::kNonSpdPivot:
    case ErrorCode::kBreakdown:
    case ErrorCode::kMessageSize:
    case ErrorCode::kInternal:
    case ErrorCode::kShapeMismatch:
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kTagCollision:
    case ErrorCode::kDeadlineInfeasible:
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kOverload:
    case ErrorCode::kCircuitOpen:
    case ErrorCode::kIo:
      return false;
  }
  return false;
}

bool is_transient(const Status& status) { return is_transient(status.code()); }

SingularPivotError::SingularPivotError(ErrorCode code, const std::string& where,
                                       std::int64_t block_row, std::int64_t pivot_index,
                                       double growth)
    : SolveError(code, format_pivot_message(code, where, block_row, pivot_index, growth)),
      block_row_(block_row),
      pivot_index_(pivot_index),
      growth_(growth) {}

BreakdownError::BreakdownError(const std::string& where, double growth, double threshold)
    : SolveError(ErrorCode::kBreakdown, where + ": pivot growth " + format_double(growth) +
                                            " exceeds breakdown threshold " +
                                            format_double(threshold)),
      growth_(growth),
      threshold_(threshold) {}

ShapeMismatchError::ShapeMismatchError(const char* where, const char* detail, std::int64_t got,
                                       std::int64_t expected)
    : SolveError(ErrorCode::kShapeMismatch,
                 std::string(where) + ": shape mismatch, " + detail + " violated (got " +
                     std::to_string(got) + ", expected " + std::to_string(expected) + ")"),
      got_(got),
      expected_(expected) {}

MessageSizeError::MessageSizeError(int src, int tag, std::size_t expected_bytes,
                                   std::size_t got_bytes)
    : SolveError(ErrorCode::kMessageSize,
                 "received size mismatch from rank " + std::to_string(src) + " tag " +
                     std::to_string(tag) + ": expected " + std::to_string(expected_bytes) +
                     " bytes, got " + std::to_string(got_bytes)),
      src_(src),
      tag_(tag),
      expected_(expected_bytes),
      got_(got_bytes) {}

MessageCorruptError::MessageCorruptError(int src, int tag, std::uint64_t expected_crc,
                                         std::uint64_t got_crc)
    : SolveError(ErrorCode::kMessageCorrupt,
                 "corrupted payload from rank " + std::to_string(src) + " tag " +
                     std::to_string(tag) + ": checksum " + std::to_string(got_crc) +
                     " != expected " + std::to_string(expected_crc)),
      src_(src),
      tag_(tag) {}

InjectedCrashError::InjectedCrashError(int rank)
    : SolveError(ErrorCode::kInjectedCrash,
                 "rank " + std::to_string(rank) + " crashed before send (injected fault)"),
      rank_(rank) {}

DeadlineError::DeadlineError(int src, int tag, double waited_seconds)
    : SolveError(ErrorCode::kDeadline, "receive from rank " + std::to_string(src) + " tag " +
                                           std::to_string(tag) + " exceeded its deadline after " +
                                           format_double(waited_seconds) + " s"),
      src_(src),
      tag_(tag),
      waited_(waited_seconds) {}

std::string_view to_string(BreakdownPolicy policy) {
  switch (policy) {
    case BreakdownPolicy::kFailFast:
      return "failfast";
    case BreakdownPolicy::kRefine:
      return "refine";
    case BreakdownPolicy::kFallback:
      return "fallback";
  }
  return "unknown";
}

std::optional<BreakdownPolicy> parse_breakdown_policy(std::string_view name) {
  if (name == "failfast") return BreakdownPolicy::kFailFast;
  if (name == "refine") return BreakdownPolicy::kRefine;
  if (name == "fallback") return BreakdownPolicy::kFallback;
  return std::nullopt;
}

}  // namespace ardbt::fault
