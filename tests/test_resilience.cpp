#include "src/service/resilience.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/fault/plan.hpp"
#include "src/fault/status.hpp"
#include "src/service/fingerprint.hpp"
#include "src/service/loadgen.hpp"
#include "src/service/rng.hpp"
#include "src/service/server.hpp"

namespace ardbt::service {
namespace {

using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;

mpsim::EngineOptions charged() {
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  engine.cost = mpsim::CostModel::cluster2014();
  return engine;
}

FactorCache::Options cache_options(std::size_t byte_budget = 0, int nranks = 2) {
  FactorCache::Options opts;
  opts.nranks = nranks;
  opts.byte_budget = byte_budget;
  opts.session.engine = charged();
  return opts;
}

std::shared_ptr<const btds::BlockTridiag> shared_problem(ProblemKind kind, la::index_t n,
                                                         la::index_t m, std::uint64_t seed) {
  return std::make_shared<const btds::BlockTridiag>(make_problem(kind, n, m, seed));
}

Request make_request(std::uint64_t id, Fingerprint fp, const la::Matrix& rhs, double arrival_s,
                     int tenant = 0) {
  Request req;
  req.id = id;
  req.tenant = tenant;
  req.system = fp;
  req.rhs = rhs;
  req.arrival_s = arrival_s;
  return req;
}

// ---------------------------------------------------------------------------
// RNG goldens: the service layer's only randomness. These constants pin the
// exact stream; any change to rng.hpp breaks byte-identical replays and must
// show up here first.

TEST(Rng, SplitMix64Golden) {
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(splitmix64(state), 0x06c45d188009454full);
}

TEST(Rng, Uniform01AndJitteredGolden) {
  std::uint64_t state = 0x5eedull;
  EXPECT_DOUBLE_EQ(uniform01(state), 0.038848734697185194);
  EXPECT_DOUBLE_EQ(uniform01(state), 0.33280110873942981);
  EXPECT_DOUBLE_EQ(uniform01(state), 0.36468185637813821);

  state = 0x5eedull;
  EXPECT_DOUBLE_EQ(jittered(state, 2e-3), 0.0010776974693943705);
  EXPECT_DOUBLE_EQ(jittered(state, 2e-3), 0.0016656022174788595);
  EXPECT_DOUBLE_EQ(jittered(state, 2e-3), 0.0017293637127562766);

  // Jitter is bounded to [0.5, 1.5) of the mean by construction.
  state = 123;
  for (int i = 0; i < 256; ++i) {
    const double j = jittered(state, 1.0);
    EXPECT_GE(j, 0.5);
    EXPECT_LT(j, 1.5);
  }
}

// ---------------------------------------------------------------------------
// Transient/permanent classification: exhaustive over every ErrorCode, so a
// new code cannot land without a documented retry policy.

TEST(Classification, EveryErrorCodeIsClassified) {
  using fault::ErrorCode;
  const std::vector<ErrorCode> transient = {
      ErrorCode::kMessageCorrupt,  // detected bit flip: clean on re-run
      ErrorCode::kInjectedCrash,   // injected crash: one-shot specs fire once
      ErrorCode::kDeadline,        // blocked receive timed out: congestion
  };
  const std::vector<ErrorCode> permanent = {
      ErrorCode::kOk,           ErrorCode::kSingularPivot,
      ErrorCode::kNonSpdPivot,  ErrorCode::kBreakdown,
      ErrorCode::kMessageSize,  ErrorCode::kInternal,
      ErrorCode::kShapeMismatch, ErrorCode::kInvalidArgument,
      ErrorCode::kTagCollision,  // a tag claim bug is deterministic
      ErrorCode::kDeadlineInfeasible, ErrorCode::kDeadlineExceeded,
      ErrorCode::kOverload,     ErrorCode::kCircuitOpen,
      ErrorCode::kIo,  // a missing or malformed file stays so on a re-run
  };
  for (ErrorCode code : transient) {
    EXPECT_TRUE(fault::is_transient(code)) << fault::to_string(code);
    EXPECT_TRUE(fault::is_transient(fault::Status::error(code, "x"))) << fault::to_string(code);
  }
  for (ErrorCode code : permanent) {
    EXPECT_FALSE(fault::is_transient(code)) << fault::to_string(code);
  }
  // Exhaustive: the two lists cover the enum (kIo is last).
  EXPECT_EQ(transient.size() + permanent.size(), static_cast<std::size_t>(ErrorCode::kIo) + 1);
}

TEST(Classification, NamesAndAdmissionErrors) {
  EXPECT_EQ(to_string(Outcome::kDone), "done");
  EXPECT_EQ(to_string(Outcome::kFailed), "failed");
  EXPECT_EQ(to_string(Outcome::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_EQ(to_string(Admission::kAdmitted), "admitted");
  EXPECT_EQ(to_string(Admission::kRejectedQuota), "rejected-quota");
  EXPECT_EQ(to_string(Admission::kShed), "shed");
  EXPECT_EQ(to_string(Admission::kCircuitOpen), "circuit-open");
  EXPECT_EQ(to_string(Admission::kDeadlineInfeasible), "deadline-infeasible");

  EXPECT_EQ(fault::to_string(fault::ErrorCode::kDeadlineInfeasible), "deadline-infeasible");
  EXPECT_EQ(fault::to_string(fault::ErrorCode::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_EQ(fault::to_string(fault::ErrorCode::kOverload), "overload");
  EXPECT_EQ(fault::to_string(fault::ErrorCode::kCircuitOpen), "circuit-open");
  EXPECT_EQ(fault::to_string(fault::AlertKind::kShedStorm), "shed-storm");
  EXPECT_EQ(fault::to_string(fault::AlertKind::kBreakerTrip), "breaker-trip");
}

// ---------------------------------------------------------------------------
// Policy unit tests (pure state machines on the virtual clock).

TEST(CircuitBreakerUnit, TripsHalfOpensAndCloses) {
  CircuitBreaker b(2, 0.1);
  EXPECT_TRUE(b.allow(0.0));
  EXPECT_FALSE(b.on_failure(1.0));  // 1 of 2
  EXPECT_TRUE(b.allow(1.0));
  EXPECT_TRUE(b.on_failure(2.0));   // trips
  EXPECT_TRUE(b.is_open());
  EXPECT_EQ(b.trips(), 1u);
  EXPECT_FALSE(b.allow(2.05));          // still cooling down
  EXPECT_TRUE(b.allow(2.11));           // half-open probe admitted
  EXPECT_TRUE(b.on_failure(2.2));       // half-open failure re-trips at once
  EXPECT_EQ(b.trips(), 2u);
  EXPECT_FALSE(b.allow(2.25));
  EXPECT_TRUE(b.allow(2.35));  // half-open again
  b.on_success();              // probe succeeded: closed
  EXPECT_TRUE(b.allow(2.36));
  EXPECT_FALSE(b.on_failure(3.0));  // consecutive count was reset
  EXPECT_EQ(b.trips(), 2u);

  // A success mid-streak resets the consecutive-failure count.
  CircuitBreaker c(3, 0.1);
  c.on_failure(0.0);
  c.on_failure(0.1);
  c.on_success();
  EXPECT_FALSE(c.on_failure(0.2));
  EXPECT_FALSE(c.on_failure(0.3));

  // Threshold 0 disables the breaker entirely.
  CircuitBreaker off(0, 0.1);
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(off.on_failure(static_cast<double>(i)));
  EXPECT_TRUE(off.allow(100.0));
}

TEST(RetryBudgetUnit, StartsFullAccruesAndSpends) {
  RetryBudget b(0.5, 2.0);
  EXPECT_DOUBLE_EQ(b.tokens(), 2.0);
  EXPECT_TRUE(b.try_spend());
  EXPECT_TRUE(b.try_spend());
  EXPECT_FALSE(b.try_spend());  // empty
  b.on_admit();                 // +0.5 -> 0.5, still below one whole token
  EXPECT_FALSE(b.try_spend());
  b.on_admit();
  EXPECT_TRUE(b.try_spend());
  for (int i = 0; i < 16; ++i) b.on_admit();
  EXPECT_DOUBLE_EQ(b.tokens(), 2.0);  // capped at burst

  RetryBudget zero(0.0, 0.0);
  EXPECT_FALSE(zero.try_spend());
  zero.on_admit();
  EXPECT_FALSE(zero.try_spend());
}

// ---------------------------------------------------------------------------
// Deadlines.

TEST(Deadlines, InfeasibleDeadlineRejectedAtAdmission) {
  FactorCache cache(cache_options());
  ServerOptions opts;
  opts.window_s = 1e-3;
  Server server(cache, opts);

  const auto sys = shared_problem(ProblemKind::kDiagDominant, 10, 2, 3);
  const Fingerprint fp = fingerprint(*sys);
  server.register_system(fp, [sys] { return sys; });
  const la::Matrix rhs = make_rhs(10, 2, 1, 11);

  // No service-time estimate yet: the earliest possible finish is the
  // window close. A deadline inside the window cannot be met.
  Request infeasible = make_request(0, fp, rhs, 0.0);
  infeasible.deadline_s = 5e-4;
  EXPECT_EQ(server.try_submit(std::move(infeasible)), Admission::kDeadlineInfeasible);
  EXPECT_EQ(server.stats().resilience.deadline_infeasible, 1u);
  EXPECT_EQ(server.stats().submitted, 0u);

  Request feasible = make_request(1, fp, rhs, 0.0);
  feasible.deadline_s = 1.0;
  EXPECT_EQ(server.try_submit(std::move(feasible)), Admission::kAdmitted);
  server.drain();
  ASSERT_EQ(server.completions().size(), 1u);
  EXPECT_EQ(server.completions()[0].outcome, Outcome::kDone);
  EXPECT_EQ(server.completions()[0].error, fault::ErrorCode::kOk);
}

TEST(Deadlines, QueuedColumnPastDeadlineIsCancelledAtBatchStart) {
  // Probe run: measure the service time of the expensive system A so the
  // main run can place B's deadline between its admission estimate and
  // the instant A's execution actually frees the executor.
  const auto sys_a = shared_problem(ProblemKind::kDiagDominant, 48, 6, 1);
  const auto sys_b = shared_problem(ProblemKind::kDiagDominant, 10, 2, 2);
  const Fingerprint fp_a = fingerprint(*sys_a);
  const Fingerprint fp_b = fingerprint(*sys_b);
  const la::Matrix rhs_a = make_rhs(48, 6, 1, 21);
  const la::Matrix rhs_b = make_rhs(10, 2, 1, 22);

  // A short window keeps the queueing phase small relative to A's
  // service time, which is what makes the deadline placement below work.
  const double window = 1e-5;
  double service_a = 0.0;
  {
    FactorCache cache(cache_options());
    ServerOptions opts;
    opts.window_s = window;
    Server server(cache, opts);
    server.register_system(fp_a, [sys_a] { return sys_a; });
    ASSERT_TRUE(server.submit(make_request(0, fp_a, rhs_a, 0.0)));
    server.drain();
    ASSERT_EQ(server.completions().size(), 1u);
    service_a = server.completions()[0].finish_s - server.completions()[0].start_s;
  }
  ASSERT_GT(service_a, 2.2e-6) << "system A too cheap for the cancellation window";

  FactorCache cache(cache_options());
  ServerOptions opts;
  opts.window_s = window;
  Server server(cache, opts);
  server.register_system(fp_a, [sys_a] { return sys_a; });
  server.register_system(fp_b, [sys_b] { return sys_b; });

  // A's batch closes at `window` and runs until window + service_a. B
  // arrives at window/10 with a deadline its admission estimate (close at
  // 1.1 * window, idle executor, no estimate yet) still meets — but A's
  // execution pushes B's start past it.
  ASSERT_TRUE(server.submit(make_request(0, fp_a, rhs_a, 0.0)));
  Request late = make_request(1, fp_b, rhs_b, 0.1 * window);
  late.deadline_s = window + 0.5 * service_a;
  EXPECT_EQ(server.try_submit(std::move(late)), Admission::kAdmitted);
  server.drain();

  ASSERT_EQ(server.completions().size(), 2u);
  const Completion& a = server.completions()[0];
  const Completion& b = server.completions()[1];
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(a.outcome, Outcome::kDone);
  EXPECT_EQ(b.id, 1u);
  EXPECT_EQ(b.outcome, Outcome::kDeadlineExceeded);
  EXPECT_EQ(b.error, fault::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(b.batch, Completion::kNoBatch);
  EXPECT_DOUBLE_EQ(b.finish_s, b.start_s);  // never touched the solver
  EXPECT_EQ(server.stats().resilience.deadline_cancelled, 1u);
  // The cancelled column never entered a served batch.
  EXPECT_EQ(server.stats().served, 1u);
}

// ---------------------------------------------------------------------------
// Retries, budget, hedging.

TEST(Retries, TransientFaultIsRetriedAndRecovered) {
  fault::FaultPlan plan;
  plan.crash_before_send(0, 1);  // one-shot: first attempt's factor dies

  FactorCache::Options copts = cache_options();
  copts.session.engine.fault_plan = &plan;
  FactorCache cache(copts);
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.keep_solutions = true;
  opts.resilience.max_retries = 2;
  opts.resilience.retry_backoff_s = 1e-4;
  Server server(cache, opts);

  const auto sys = shared_problem(ProblemKind::kDiagDominant, 12, 3, 5);
  const Fingerprint fp = fingerprint(*sys);
  server.register_system(fp, [sys] { return sys; });
  const la::Matrix rhs = make_rhs(12, 3, 1, 31);
  ASSERT_TRUE(server.submit(make_request(0, fp, rhs, 0.0)));
  server.drain();

  ASSERT_EQ(server.completions().size(), 1u);
  const Completion& c = server.completions()[0];
  EXPECT_EQ(c.outcome, Outcome::kDone);
  EXPECT_EQ(c.error, fault::ErrorCode::kOk);
  EXPECT_EQ(c.attempts, 2);
  EXPECT_FALSE(c.hedged);
  EXPECT_LT(btds::relative_residual(*sys, c.x, rhs), 1e-10);
  EXPECT_EQ(server.stats().resilience.retries, 1u);
  EXPECT_EQ(server.stats().resilience.retries_denied, 0u);
  EXPECT_EQ(server.stats().resilience.failed_cols, 0u);
  // The backoff made the retried batch finish later than close + service.
  EXPECT_GT(c.finish_s, c.close_s);
}

TEST(Retries, DeniedWhenBudgetExhausted) {
  fault::FaultPlan plan;
  plan.crash_before_send(0, 1);

  FactorCache::Options copts = cache_options();
  copts.session.engine.fault_plan = &plan;
  FactorCache cache(copts);
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.resilience.max_retries = 2;
  opts.resilience.retry_budget_ratio = 0.0;
  opts.resilience.retry_budget_burst = 0.0;  // no tokens, ever
  Server server(cache, opts);

  const auto sys = shared_problem(ProblemKind::kDiagDominant, 12, 3, 5);
  const Fingerprint fp = fingerprint(*sys);
  server.register_system(fp, [sys] { return sys; });
  ASSERT_TRUE(server.submit(make_request(0, fp, make_rhs(12, 3, 1, 32), 0.0)));
  server.drain();

  ASSERT_EQ(server.completions().size(), 1u);
  const Completion& c = server.completions()[0];
  EXPECT_EQ(c.outcome, Outcome::kFailed);
  EXPECT_EQ(c.error, fault::ErrorCode::kInjectedCrash);
  EXPECT_EQ(c.attempts, 1);
  EXPECT_EQ(server.stats().resilience.retries, 0u);
  EXPECT_EQ(server.stats().resilience.retries_denied, 1u);
  EXPECT_EQ(server.stats().resilience.failed_cols, 1u);
  EXPECT_EQ(server.stats().resilience.contained_batches, 1u);
}

TEST(Retries, BackoffScheduleMatchesTheJitterStream) {
  // Two one-shot crashes: attempts 1 and 2 fail, attempt 3 succeeds. With
  // no service-time estimate yet, the extra latency is exactly the two
  // jittered backoffs drawn from the documented stream.
  const auto sys = shared_problem(ProblemKind::kDiagDominant, 12, 3, 5);
  const Fingerprint fp = fingerprint(*sys);
  const la::Matrix rhs = make_rhs(12, 3, 1, 33);

  double clean_finish = 0.0;
  {
    FactorCache cache(cache_options());
    ServerOptions opts;
    opts.window_s = 1e-3;
    Server server(cache, opts);
    server.register_system(fp, [sys] { return sys; });
    ASSERT_TRUE(server.submit(make_request(0, fp, rhs, 0.0)));
    server.drain();
    clean_finish = server.completions()[0].finish_s;
  }

  fault::FaultPlan plan;
  plan.crash_before_send(0, 1);
  plan.crash_before_send(0, 2);
  FactorCache::Options copts = cache_options();
  copts.session.engine.fault_plan = &plan;
  FactorCache cache(copts);
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.resilience.max_retries = 3;
  opts.resilience.retry_backoff_s = 1e-3;
  Server server(cache, opts);
  server.register_system(fp, [sys] { return sys; });
  ASSERT_TRUE(server.submit(make_request(0, fp, rhs, 0.0)));
  server.drain();

  ASSERT_EQ(server.completions().size(), 1u);
  const Completion& c = server.completions()[0];
  EXPECT_EQ(c.outcome, Outcome::kDone);
  EXPECT_EQ(c.attempts, 3);
  EXPECT_EQ(server.stats().resilience.retries, 2u);

  // Replay the documented jitter stream: seeded by resilience seed and
  // the first live request id, means 2^(k-1) * backoff.
  std::uint64_t state = opts.resilience.seed ^ (0x9e3779b97f4a7c15ull * (0 + 1));
  const double j1 = jittered(state, 1e-3);
  const double j2 = jittered(state, 2e-3);
  EXPECT_NEAR(c.finish_s, clean_finish + j1 + j2, 1e-12);
}

TEST(Retries, HedgedAttemptOverlapsTheFailedPrimary) {
  // Warm the estimate with a clean batch on system A, then inject a crash
  // into B's factorization. The hedged server charges only the hedge
  // delay for the failed primary; the plain server charges a full failed
  // attempt plus an exponential backoff — strictly slower.
  const auto sys_a = shared_problem(ProblemKind::kDiagDominant, 12, 3, 1);
  const auto sys_b = shared_problem(ProblemKind::kDiagDominant, 12, 3, 2);
  const Fingerprint fp_a = fingerprint(*sys_a);
  const Fingerprint fp_b = fingerprint(*sys_b);
  const la::Matrix rhs = make_rhs(12, 3, 1, 34);

  struct Run {
    double finish_s = 0.0;
    std::uint64_t hedges = 0;
    int attempts = 0;
    bool hedged = false;
  };
  const auto run_with_hedge = [&](bool hedge) {
    fault::FaultPlan plan;  // empty during the warmup batch
    FactorCache::Options copts = cache_options();
    copts.session.engine.fault_plan = &plan;
    FactorCache cache(copts);
    ServerOptions opts;
    opts.window_s = 1e-3;
    opts.resilience.max_retries = 2;
    opts.resilience.retry_backoff_s = 1e-3;
    opts.resilience.hedge = hedge;
    Server server(cache, opts);
    server.register_system(fp_a, [sys_a] { return sys_a; });
    server.register_system(fp_b, [sys_b] { return sys_b; });

    EXPECT_TRUE(server.submit(make_request(0, fp_a, rhs, 0.0)));
    server.drain();  // warmup: sets the service-time estimate

    plan.crash_before_send(0, 1);  // armed only for the next batch
    EXPECT_TRUE(server.submit(make_request(1, fp_b, rhs, 1.0)));
    server.drain();

    Run run;
    run.finish_s = server.completions()[1].finish_s;
    run.attempts = server.completions()[1].attempts;
    run.hedged = server.completions()[1].hedged;
    run.hedges = server.stats().resilience.hedges;
    return run;
  };

  const Run hedged = run_with_hedge(true);
  const Run plain = run_with_hedge(false);
  EXPECT_EQ(hedged.attempts, 2);
  EXPECT_EQ(plain.attempts, 2);
  EXPECT_TRUE(hedged.hedged);
  EXPECT_FALSE(plain.hedged);
  EXPECT_EQ(hedged.hedges, 1u);
  EXPECT_EQ(plain.hedges, 0u);
  EXPECT_LT(hedged.finish_s, plain.finish_s);
}

TEST(Retries, ColdStartHedgeFallsBackToBackoff) {
  // Regression: before the first completion the service-time EWMA has no
  // sample (est_service_s_ == 0), so a hedge delay derived from it was
  // zero — every transient failure in the cold window hedged instantly
  // and for free. A cold server with --hedge but no explicit hedge delay
  // must take the jittered backoff path instead.
  const auto sys = shared_problem(ProblemKind::kDiagDominant, 12, 3, 5);
  const Fingerprint fp = fingerprint(*sys);
  const la::Matrix rhs = make_rhs(12, 3, 1, 35);

  fault::FaultPlan plan;
  plan.crash_before_send(0, 1);  // fails the very first (cold) attempt
  FactorCache::Options copts = cache_options();
  copts.session.engine.fault_plan = &plan;
  FactorCache cache(copts);
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.resilience.max_retries = 2;
  opts.resilience.retry_backoff_s = 1e-3;
  opts.resilience.hedge = true;  // hedge requested, but the estimate is cold
  Server server(cache, opts);
  server.register_system(fp, [sys] { return sys; });
  ASSERT_TRUE(server.submit(make_request(0, fp, rhs, 0.0)));
  server.drain();

  ASSERT_EQ(server.completions().size(), 1u);
  const Completion& c = server.completions()[0];
  EXPECT_EQ(c.outcome, Outcome::kDone);
  EXPECT_EQ(c.attempts, 2);
  // The cold retry must NOT be recorded as a hedge...
  EXPECT_FALSE(c.hedged);
  EXPECT_EQ(server.stats().resilience.hedges, 0u);
  // ...and must pay a real (strictly positive) backoff: the finish time
  // replays the documented jitter stream, never the zero-delay hedge.
  std::uint64_t state = opts.resilience.seed ^ (0x9e3779b97f4a7c15ull * (0 + 1));
  const double j1 = jittered(state, 1e-3);
  EXPECT_GT(j1, 0.0);
  EXPECT_GE(c.finish_s - c.start_s, j1);
}

TEST(Retries, ColdStartExplicitHedgeDelayStillHedges) {
  // Companion: an explicit --hedge-delay is usable from a cold start — the
  // guard only disarms the *derived* (EWMA-based) delay.
  const auto sys = shared_problem(ProblemKind::kDiagDominant, 12, 3, 6);
  const Fingerprint fp = fingerprint(*sys);
  const la::Matrix rhs = make_rhs(12, 3, 1, 36);

  fault::FaultPlan plan;
  plan.crash_before_send(0, 1);
  FactorCache::Options copts = cache_options();
  copts.session.engine.fault_plan = &plan;
  FactorCache cache(copts);
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.resilience.max_retries = 2;
  opts.resilience.retry_backoff_s = 1e-3;
  opts.resilience.hedge = true;
  opts.resilience.hedge_delay_s = 5e-4;
  Server server(cache, opts);
  server.register_system(fp, [sys] { return sys; });
  ASSERT_TRUE(server.submit(make_request(0, fp, rhs, 0.0)));
  server.drain();

  ASSERT_EQ(server.completions().size(), 1u);
  const Completion& c = server.completions()[0];
  EXPECT_EQ(c.outcome, Outcome::kDone);
  EXPECT_TRUE(c.hedged);
  EXPECT_EQ(server.stats().resilience.hedges, 1u);
  EXPECT_GE(c.finish_s - c.start_s, opts.resilience.hedge_delay_s);
}

// ---------------------------------------------------------------------------
// Overload shedding.

TEST(Overload, ShedsOnQueueDepth) {
  FactorCache cache(cache_options());
  ServerOptions opts;
  opts.window_s = 1e-2;
  opts.resilience.shed_queue_cols = 2;
  Server server(cache, opts);

  const auto sys = shared_problem(ProblemKind::kDiagDominant, 10, 2, 3);
  const Fingerprint fp = fingerprint(*sys);
  server.register_system(fp, [sys] { return sys; });
  const la::Matrix rhs = make_rhs(10, 2, 1, 41);

  EXPECT_EQ(server.try_submit(make_request(0, fp, rhs, 0.0)), Admission::kAdmitted);
  EXPECT_EQ(server.try_submit(make_request(1, fp, rhs, 0.0)), Admission::kAdmitted);
  EXPECT_EQ(server.try_submit(make_request(2, fp, rhs, 0.0)), Admission::kShed);
  EXPECT_EQ(server.stats().resilience.shed, 1u);
  server.drain();
  EXPECT_EQ(server.stats().served, 2u);

  // Queue drained: admissions flow again.
  EXPECT_EQ(server.try_submit(make_request(3, fp, rhs, 1.0)), Admission::kAdmitted);
  server.drain();
}

TEST(Overload, ShedsOnExecutorBacklog) {
  FactorCache cache(cache_options());
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.resilience.shed_backlog_s = 1e-6;
  Server server(cache, opts);

  const auto sys = shared_problem(ProblemKind::kDiagDominant, 12, 3, 3);
  const Fingerprint fp = fingerprint(*sys);
  server.register_system(fp, [sys] { return sys; });
  const la::Matrix rhs = make_rhs(12, 3, 1, 42);

  EXPECT_EQ(server.try_submit(make_request(0, fp, rhs, 0.0)), Admission::kAdmitted);
  server.drain();  // executor busy until ~1e-3 + factor + solve

  // An arrival at the close instant observes a backlog of the whole
  // service time — far above the 1 microsecond bound.
  EXPECT_EQ(server.try_submit(make_request(1, fp, rhs, 1e-3)), Admission::kShed);
  EXPECT_EQ(server.stats().resilience.shed, 1u);

  // Once the arrival clock passes the executor's busy horizon the
  // backlog signal clears.
  EXPECT_EQ(server.try_submit(make_request(2, fp, rhs, 1.0)), Admission::kAdmitted);
  server.drain();
  EXPECT_EQ(server.stats().served, 2u);
}

// ---------------------------------------------------------------------------
// Fault containment and the circuit breaker at server level.

TEST(Containment, PermanentFailureFailsOnlyItsBatch) {
  auto bad = make_problem(ProblemKind::kDiagDominant, 12, 3, 7);
  btds::plant_singular_pivot(bad, 0);
  const auto sys_bad = std::make_shared<const btds::BlockTridiag>(std::move(bad));
  const auto sys_good = shared_problem(ProblemKind::kDiagDominant, 12, 3, 8);
  const Fingerprint fp_bad = fingerprint(*sys_bad);
  const Fingerprint fp_good = fingerprint(*sys_good);

  FactorCache cache(cache_options());
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.keep_solutions = true;
  opts.resilience.max_retries = 3;  // permanent: must not be spent
  Server server(cache, opts);
  server.register_system(fp_bad, [sys_bad] { return sys_bad; });
  server.register_system(fp_good, [sys_good] { return sys_good; });

  const la::Matrix rhs = make_rhs(12, 3, 1, 51);
  ASSERT_TRUE(server.submit(make_request(0, fp_bad, rhs, 0.0, /*tenant=*/0)));
  ASSERT_TRUE(server.submit(make_request(1, fp_good, rhs, 0.0, /*tenant=*/1)));
  server.drain();

  ASSERT_EQ(server.completions().size(), 2u);
  const Completion* failed = nullptr;
  const Completion* done = nullptr;
  for (const Completion& c : server.completions()) {
    (c.outcome == Outcome::kFailed ? failed : done) = &c;
  }
  ASSERT_NE(failed, nullptr);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(failed->id, 0u);
  EXPECT_EQ(failed->error, fault::ErrorCode::kSingularPivot);
  EXPECT_EQ(failed->attempts, 1);  // not transient: no retry burned
  EXPECT_EQ(failed->batch, Completion::kNoBatch);
  EXPECT_EQ(done->id, 1u);
  EXPECT_EQ(done->outcome, Outcome::kDone);
  EXPECT_LT(btds::relative_residual(*sys_good, done->x, rhs), 1e-10);

  EXPECT_EQ(server.stats().resilience.contained_batches, 1u);
  EXPECT_EQ(server.stats().resilience.failed_cols, 1u);
  EXPECT_EQ(server.stats().resilience.retries, 0u);

  // The server keeps serving after the contained failure.
  ASSERT_TRUE(server.submit(make_request(2, fp_good, rhs, 1.0)));
  server.drain();
  EXPECT_EQ(server.stats().served, 2u);
}

TEST(Containment, BreakerIsolatesAFailingTenant) {
  auto bad = make_problem(ProblemKind::kDiagDominant, 12, 3, 7);
  btds::plant_singular_pivot(bad, 0);
  const auto sys_bad = std::make_shared<const btds::BlockTridiag>(std::move(bad));
  const auto sys_good = shared_problem(ProblemKind::kDiagDominant, 12, 3, 8);
  const Fingerprint fp_bad = fingerprint(*sys_bad);
  const Fingerprint fp_good = fingerprint(*sys_good);

  FactorCache cache(cache_options());
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.resilience.breaker_failures = 2;
  opts.resilience.breaker_cooldown_s = 0.1;
  Server server(cache, opts);
  server.register_system(fp_bad, [sys_bad] { return sys_bad; });
  server.register_system(fp_good, [sys_good] { return sys_good; });
  const la::Matrix rhs = make_rhs(12, 3, 1, 52);

  // Two consecutive failures trip tenant 0's breaker.
  EXPECT_EQ(server.try_submit(make_request(0, fp_bad, rhs, 0.0)), Admission::kAdmitted);
  EXPECT_EQ(server.try_submit(make_request(1, fp_bad, rhs, 0.01)), Admission::kAdmitted);
  EXPECT_EQ(server.try_submit(make_request(2, fp_bad, rhs, 0.05)), Admission::kCircuitOpen);
  EXPECT_EQ(server.stats().resilience.breaker_trips, 1u);
  EXPECT_EQ(server.stats().resilience.breaker_rejected, 1u);

  // Another tenant is unaffected by tenant 0's open breaker.
  EXPECT_EQ(server.try_submit(make_request(3, fp_good, rhs, 0.06, /*tenant=*/1)),
            Admission::kAdmitted);

  // After the cooldown a half-open probe is admitted; its failure
  // re-trips immediately.
  EXPECT_EQ(server.try_submit(make_request(4, fp_bad, rhs, 0.2)), Admission::kAdmitted);
  EXPECT_EQ(server.try_submit(make_request(5, fp_good, rhs, 0.3)), Admission::kCircuitOpen);
  EXPECT_EQ(server.stats().resilience.breaker_trips, 2u);

  // A successful half-open probe closes the breaker for good.
  EXPECT_EQ(server.try_submit(make_request(6, fp_good, rhs, 0.35)), Admission::kAdmitted);
  EXPECT_EQ(server.try_submit(make_request(7, fp_bad, rhs, 0.5)), Admission::kAdmitted);
  server.drain();

  EXPECT_EQ(server.stats().resilience.breaker_rejected, 2u);
  EXPECT_EQ(server.stats().resilience.breaker_trips, 2u);
  // Terminal states: 4 failed bad columns, 2 served good ones.
  EXPECT_EQ(server.stats().resilience.failed_cols, 4u);
  EXPECT_EQ(server.stats().served, 2u);
}

// ---------------------------------------------------------------------------
// Cache invalidation (satellite: in-flight leases stay safe).

TEST(Invalidation, LeaseSurvivesAndNextAcquireRefactors) {
  FactorCache cache(cache_options());
  const auto sys = shared_problem(ProblemKind::kDiagDominant, 12, 3, 1);
  const Fingerprint fp = fingerprint(*sys);
  int builds = 0;
  const SystemMaker make = [&] {
    ++builds;
    return sys;
  };

  FactorCache::Lease lease = cache.acquire(fp, make);
  EXPECT_EQ(builds, 1);
  EXPECT_TRUE(cache.contains(fp));

  EXPECT_TRUE(cache.invalidate(fp));
  EXPECT_FALSE(cache.contains(fp));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_FALSE(cache.invalidate(fp));  // absent: reported, not counted twice
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // The in-flight lease still owns a working factorization.
  const la::Matrix b = make_rhs(12, 3, 2, 9);
  const la::Matrix x = lease.session->solve(b);
  EXPECT_LT(btds::relative_residual(*sys, x, b), 1e-10);

  // The next acquire is a miss and refactors from scratch.
  FactorCache::Lease again = cache.acquire(fp, make);
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(builds, 2);
  EXPECT_NE(again.session.get(), lease.session.get());
}

TEST(Invalidation, BreakdownFlaggedServeDropsTheEntry) {
  // Force every factorization to flag breakdown (threshold below any real
  // pivot growth) with the refine recovery rung: the batch is *served*
  // degraded, and the suspect entry is dropped so the next request
  // refactors instead of reusing it.
  FactorCache::Options copts = cache_options();
  copts.session.ard.breakdown_growth_threshold = 1e-12;
  copts.session.engine.on_breakdown = fault::BreakdownPolicy::kRefine;
  FactorCache cache(copts);
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.keep_solutions = true;
  Server server(cache, opts);

  const auto sys = shared_problem(ProblemKind::kDiagDominant, 12, 3, 3);
  const Fingerprint fp = fingerprint(*sys);
  server.register_system(fp, [sys] { return sys; });
  const la::Matrix rhs = make_rhs(12, 3, 1, 61);

  ASSERT_TRUE(server.submit(make_request(0, fp, rhs, 0.0)));
  server.drain();
  ASSERT_EQ(server.completions().size(), 1u);
  const Completion& c = server.completions()[0];
  EXPECT_EQ(c.outcome, Outcome::kDone);
  EXPECT_NE(c.error, fault::ErrorCode::kOk);  // served, but degraded
  EXPECT_LT(btds::relative_residual(*sys, c.x, rhs), 1e-8);
  EXPECT_EQ(server.stats().resilience.degraded_cols, 1u);
  EXPECT_EQ(server.stats().resilience.invalidations, 1u);
  EXPECT_FALSE(cache.contains(fp));

  // Next request refactors (deterministically breaks down again — that is
  // the documented cost of not reusing a suspect factorization).
  ASSERT_TRUE(server.submit(make_request(1, fp, rhs, 1.0)));
  server.drain();
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(server.stats().resilience.invalidations, 2u);
}

// ---------------------------------------------------------------------------
// Load generator: chaos determinism and the terminal-state ledger.

TEST(LoadGenResilience, AccountingBalancesUnderChaosAndThreads) {
  LoadOptions load;
  load.requests = 96;
  load.clients = 8;
  load.tenants = 2;
  load.pool = 2;
  load.hot = 1;
  load.num_blocks = 16;
  load.block_size = 3;
  load.seed = 9;
  load.deadline_s = 8e-3;
  load.max_resubmits = 3;

  const auto run_with_threads = [&](int threads) {
    fault::FaultPlan plan;
    plan.crash_before_send(0, 3);
    plan.flip_bit(1, 5, 13);
    FactorCache::Options copts = cache_options(0, 2);
    copts.session.engine.threads_per_rank = threads;
    copts.session.engine.fault_plan = &plan;
    FactorCache cache(copts);
    ServerOptions sopts;
    sopts.window_s = 1e-3;
    sopts.resilience.max_retries = 2;
    sopts.resilience.breaker_failures = 4;
    sopts.resilience.shed_queue_cols = 48;
    Server server(cache, sopts);
    return run_load(server, load);
  };

  const LoadResult t1 = run_with_threads(1);
  const LoadResult t3 = run_with_threads(3);

  // Exactly one typed terminal state per logical request.
  EXPECT_EQ(t1.completed, t1.issued);
  EXPECT_EQ(t1.done + t1.failed + t1.deadline_exceeded, t1.completed);
  EXPECT_EQ(t1.quota_rejected + t1.shed + t1.breaker_rejected + t1.deadline_infeasible,
            t1.rejected);
  EXPECT_EQ(t1.issued + t1.gave_up, static_cast<std::uint64_t>(load.requests));

  // Byte-identical across worker-thread counts, including every
  // resilience counter and the latency distribution.
  EXPECT_EQ(t1.issued, t3.issued);
  EXPECT_EQ(t1.rejected, t3.rejected);
  EXPECT_EQ(t1.done, t3.done);
  EXPECT_EQ(t1.failed, t3.failed);
  EXPECT_EQ(t1.deadline_exceeded, t3.deadline_exceeded);
  EXPECT_EQ(t1.degraded, t3.degraded);
  EXPECT_EQ(t1.gave_up, t3.gave_up);
  EXPECT_EQ(t1.retries, t3.retries);
  EXPECT_EQ(t1.hedges, t3.hedges);
  EXPECT_EQ(t1.retries_denied, t3.retries_denied);
  EXPECT_EQ(t1.breaker_trips, t3.breaker_trips);
  EXPECT_EQ(t1.invalidations, t3.invalidations);
  EXPECT_EQ(t1.shed, t3.shed);
  EXPECT_EQ(t1.deadline_infeasible, t3.deadline_infeasible);
  EXPECT_EQ(t1.deadline_cancelled, t3.deadline_cancelled);
  EXPECT_EQ(t1.p50_s, t3.p50_s);
  EXPECT_EQ(t1.p99_s, t3.p99_s);
  EXPECT_EQ(t1.makespan_s, t3.makespan_s);
  EXPECT_EQ(t1.goodput_rps, t3.goodput_rps);

  // The injected faults actually exercised the retry path.
  EXPECT_GT(t1.retries + t1.failed, 0u);
}

TEST(LoadGenResilience, ClientsGiveUpUnderSustainedShed) {
  LoadOptions load;
  load.requests = 64;
  load.clients = 16;
  load.tenants = 2;
  load.pool = 1;
  load.hot = 1;
  load.num_blocks = 16;
  load.block_size = 3;
  load.seed = 11;
  load.think_s = 1e-5;  // hammer: far faster than service
  load.retry_backoff_s = 1e-5;
  load.max_resubmits = 1;

  FactorCache cache(cache_options(0, 2));
  ServerOptions sopts;
  sopts.window_s = 1e-3;
  sopts.resilience.shed_queue_cols = 2;
  Server server(cache, sopts);
  const LoadResult r = run_load(server, load);

  EXPECT_GT(r.shed, 0u);
  EXPECT_GT(r.gave_up, 0u);
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.done + r.failed + r.deadline_exceeded, r.completed);
  EXPECT_EQ(r.quota_rejected + r.shed + r.breaker_rejected + r.deadline_infeasible, r.rejected);
  EXPECT_EQ(r.issued + r.gave_up, static_cast<std::uint64_t>(load.requests));
}

}  // namespace
}  // namespace ardbt::service
