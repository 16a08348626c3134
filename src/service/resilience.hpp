#pragma once

#include <cstdint>
#include <string_view>

#include "src/fault/status.hpp"

namespace ardbt::obs {
class MetricsRegistry;
}

/// \file resilience.hpp
/// Service-resilience vocabulary and policies: typed request outcomes,
/// admission decisions, a per-tenant circuit breaker and retry budget,
/// and the counters the server exports for them.
///
/// This is the layer that connects the fault machinery (seeded
/// FaultPlans injected into mpsim::Comm, the transient/permanent split in
/// fault::is_transient) to the service loop (docs/SERVICE.md): every
/// request ends in exactly one typed terminal state, a transient solve
/// failure is retried under an explicit budget, overload is shed at
/// admission instead of queuing without bound, and a failing tenant is
/// isolated by a breaker instead of burning executor time on every
/// arrival.
///
/// Everything here is deterministic on the virtual clock: breaker and
/// budget state advance only on submit/completion events, and the only
/// randomness (retry-backoff jitter) comes from the shared splitmix64
/// stream in rng.hpp — identical request sequences give bit-identical
/// decisions for any --threads value.

namespace ardbt::service {

/// Terminal state of a request that was admitted (Completion::outcome).
/// Admission-time rejections never become Completions; they are reported
/// through Admission and the ServerStats counters instead, so the two
/// enums together cover "exactly one typed terminal state per request".
enum class Outcome : std::uint8_t {
  kDone,              ///< solved; the completion carries the solution
  kFailed,            ///< solve failed permanently (Completion::error says why)
  kDeadlineExceeded,  ///< cancelled: the deadline passed while queued
};

/// Stable lowercase name ("done", "failed", "deadline-exceeded").
std::string_view to_string(Outcome outcome);

/// Admission decision for one submitted request, in the order the
/// controller applies the checks (quota, then overload shed, then the
/// tenant breaker, then deadline feasibility).
enum class Admission : std::uint8_t {
  kAdmitted,
  kRejectedQuota,       ///< tenant over its queued-columns quota
  kShed,                ///< overload controller refused (queue/backlog bound)
  kCircuitOpen,         ///< tenant breaker open after consecutive failures
  kDeadlineInfeasible,  ///< deadline unmeetable even if started immediately
};

/// Stable lowercase name ("admitted", "rejected-quota", "shed", ...).
std::string_view to_string(Admission admission);

struct ResilienceOptions {
  /// Service-level re-solves of a batch that failed with a *transient*
  /// status (fault::is_transient). 0 disables retries entirely.
  int max_retries = 0;
  /// Mean backoff before retry k is 2^(k-1) * retry_backoff_s, jittered
  /// to [0.5, 1.5) of the mean from the splitmix64 stream seeded below.
  double retry_backoff_s = 5e-4;
  /// When on, the first retry is a hedged attempt: modeled as launched
  /// hedge_delay_s after the primary, overlapping it, so a transient
  /// primary failure costs the hedge delay instead of a full failed
  /// attempt plus backoff. Later retries back off normally.
  bool hedge = false;
  /// Hedge launch delay; 0 means half the observed service-time estimate.
  double hedge_delay_s = 0.0;
  /// Per-tenant retry budget: every admitted column accrues this many
  /// tokens (capped at retry_budget_burst); each retry or hedge spends
  /// one whole token. Keeps retries a bounded fraction of offered load so
  /// they cannot amplify overload.
  double retry_budget_ratio = 0.1;
  double retry_budget_burst = 4.0;
  /// Shed admissions while this many columns are already queued across
  /// open batches; 0 = off.
  int shed_queue_cols = 0;
  /// Shed admissions while the executor backlog (busy-until minus the
  /// arrival instant) exceeds this; 0 = off. This is the observed-latency
  /// signal: it grows exactly when completions are running late.
  double shed_backlog_s = 0.0;
  /// Trip a tenant's breaker after this many consecutive failed columns;
  /// 0 = breaker off.
  int breaker_failures = 0;
  /// An open breaker half-opens (admits probes again) after this long.
  double breaker_cooldown_s = 0.1;
  /// Seed of the retry-backoff jitter stream.
  std::uint64_t seed = 0x5eedull;
};

/// Counters of every resilience decision (ServerStats::resilience).
struct ResilienceStats {
  std::uint64_t shed = 0;                ///< admissions refused by overload control
  std::uint64_t breaker_rejected = 0;    ///< admissions refused by an open breaker
  std::uint64_t deadline_infeasible = 0; ///< admissions refused as unmeetable
  std::uint64_t deadline_cancelled = 0;  ///< queued columns cancelled at batch start
  std::uint64_t failed_cols = 0;         ///< columns completed as Outcome::kFailed
  std::uint64_t degraded_cols = 0;       ///< columns served via a recovery rung
  std::uint64_t retries = 0;             ///< service-level batch re-solves
  std::uint64_t hedges = 0;              ///< retries taken as hedged attempts
  std::uint64_t retries_denied = 0;      ///< retries refused by the budget
  std::uint64_t breaker_trips = 0;       ///< closed/half-open -> open transitions
  std::uint64_t invalidations = 0;       ///< cache entries dropped after breakdown
  std::uint64_t contained_batches = 0;   ///< batch failures contained to their columns
};

/// Counters under "service.resilience.*".
void export_resilience_metrics(const ResilienceStats& stats, obs::MetricsRegistry& reg);

/// Per-tenant circuit breaker on the virtual clock. Closed admits
/// everything and counts consecutive failures; `threshold` consecutive
/// failures trip it open; open rejects until `cooldown_s` elapsed, then
/// half-opens; in half-open the first failure re-trips (a fresh cooldown)
/// and the first success closes. A threshold of 0 disables the breaker
/// (always allows, never trips).
///
/// Failure times are batch *finish* times while admission queries use
/// *arrival* times; both move forward with the simulation, and the small
/// skew between them (an executor finish can be modeled past the next
/// arrival) is deterministic, so replays are bit-identical.
class CircuitBreaker {
 public:
  CircuitBreaker(int threshold, double cooldown_s)
      : threshold_(threshold), cooldown_s_(cooldown_s) {}

  /// Admission query at virtual time `now_s`; may transition open ->
  /// half-open when the cooldown has elapsed.
  bool allow(double now_s);
  /// One column of this tenant completed successfully.
  void on_success();
  /// One column of this tenant failed at virtual time `now_s`. Returns
  /// true when this failure tripped (or re-tripped) the breaker.
  bool on_failure(double now_s);

  bool is_open() const { return state_ == State::kOpen; }
  std::uint64_t trips() const { return trips_; }

 private:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  int threshold_;
  double cooldown_s_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  double open_until_s_ = 0.0;
  std::uint64_t trips_ = 0;
};

/// Per-tenant retry token bucket: admissions accrue fractional tokens,
/// each retry spends a whole one. Starts full so a cold tenant can retry
/// its first transient failure.
class RetryBudget {
 public:
  RetryBudget(double ratio, double burst) : ratio_(ratio), burst_(burst), tokens_(burst) {}

  void on_admit() { tokens_ = tokens_ + ratio_ > burst_ ? burst_ : tokens_ + ratio_; }
  bool try_spend() {
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }
  double tokens() const { return tokens_; }

 private:
  double ratio_;
  double burst_;
  double tokens_;
};

}  // namespace ardbt::service
