#include "src/service/resilience.hpp"

#include "src/obs/metrics.hpp"

namespace ardbt::service {

std::string_view to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kDone:
      return "done";
    case Outcome::kFailed:
      return "failed";
    case Outcome::kDeadlineExceeded:
      return "deadline-exceeded";
  }
  return "unknown";
}

std::string_view to_string(Admission admission) {
  switch (admission) {
    case Admission::kAdmitted:
      return "admitted";
    case Admission::kRejectedQuota:
      return "rejected-quota";
    case Admission::kShed:
      return "shed";
    case Admission::kCircuitOpen:
      return "circuit-open";
    case Admission::kDeadlineInfeasible:
      return "deadline-infeasible";
  }
  return "unknown";
}

void export_resilience_metrics(const ResilienceStats& stats, obs::MetricsRegistry& reg) {
  reg.counter("service.resilience.shed").add(stats.shed);
  reg.counter("service.resilience.breaker_rejected").add(stats.breaker_rejected);
  reg.counter("service.resilience.deadline_infeasible").add(stats.deadline_infeasible);
  reg.counter("service.resilience.deadline_cancelled").add(stats.deadline_cancelled);
  reg.counter("service.resilience.failed_cols").add(stats.failed_cols);
  reg.counter("service.resilience.degraded_cols").add(stats.degraded_cols);
  reg.counter("service.resilience.retries").add(stats.retries);
  reg.counter("service.resilience.hedges").add(stats.hedges);
  reg.counter("service.resilience.retries_denied").add(stats.retries_denied);
  reg.counter("service.resilience.breaker_trips").add(stats.breaker_trips);
  reg.counter("service.resilience.invalidations").add(stats.invalidations);
  reg.counter("service.resilience.contained_batches").add(stats.contained_batches);
}

bool CircuitBreaker::allow(double now_s) {
  if (threshold_ <= 0) return true;
  if (state_ == State::kOpen) {
    if (now_s < open_until_s_) return false;
    state_ = State::kHalfOpen;
  }
  return true;
}

void CircuitBreaker::on_success() {
  consecutive_failures_ = 0;
  if (state_ == State::kHalfOpen) state_ = State::kClosed;
}

bool CircuitBreaker::on_failure(double now_s) {
  if (threshold_ <= 0) return false;
  ++consecutive_failures_;
  const bool trip = state_ == State::kHalfOpen ||
                    (state_ == State::kClosed && consecutive_failures_ >= threshold_);
  if (!trip) return false;
  state_ = State::kOpen;
  open_until_s_ = now_s + cooldown_s_;
  ++trips_;
  return true;
}

}  // namespace ardbt::service
