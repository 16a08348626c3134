#include "src/fault/plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/btds/banded_lu.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/solver.hpp"
#include "src/fault/status.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt {
namespace {

using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;

mpsim::EngineOptions charged() {
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  return engine;
}

// ---------------------------------------------------------------- taxonomy

TEST(Status, CodesRoundTripAndTransience) {
  EXPECT_EQ(fault::to_string(fault::ErrorCode::kSingularPivot), "singular-pivot");
  EXPECT_EQ(fault::to_string(fault::ErrorCode::kMessageCorrupt), "message-corrupt");
  EXPECT_TRUE(fault::is_transient(fault::ErrorCode::kMessageCorrupt));
  EXPECT_TRUE(fault::is_transient(fault::ErrorCode::kInjectedCrash));
  EXPECT_TRUE(fault::is_transient(fault::ErrorCode::kDeadline));
  EXPECT_FALSE(fault::is_transient(fault::ErrorCode::kSingularPivot));
  EXPECT_FALSE(fault::is_transient(fault::ErrorCode::kBreakdown));
}

TEST(Status, SolveErrorIsARuntimeErrorWithCode) {
  const fault::SingularPivotError e(fault::ErrorCode::kSingularPivot, "here", 3, 1, 42.0);
  EXPECT_EQ(e.code(), fault::ErrorCode::kSingularPivot);
  EXPECT_EQ(e.block_row(), 3);
  EXPECT_EQ(e.pivot_index(), 1);
  EXPECT_DOUBLE_EQ(e.growth(), 42.0);
  // Existing catch sites use std::runtime_error; the taxonomy must slot in.
  const std::runtime_error& base = e;
  EXPECT_NE(std::string(base.what()).find("here"), std::string::npos);
}

TEST(Status, ParseBreakdownPolicy) {
  using fault::BreakdownPolicy;
  EXPECT_EQ(fault::parse_breakdown_policy("failfast"), BreakdownPolicy::kFailFast);
  EXPECT_EQ(fault::parse_breakdown_policy("refine"), BreakdownPolicy::kRefine);
  EXPECT_EQ(fault::parse_breakdown_policy("fallback"), BreakdownPolicy::kFallback);
  EXPECT_FALSE(fault::parse_breakdown_policy("explode").has_value());
  for (auto p : {BreakdownPolicy::kFailFast, BreakdownPolicy::kRefine,
                 BreakdownPolicy::kFallback}) {
    EXPECT_EQ(fault::parse_breakdown_policy(fault::to_string(p)), p);
  }
}

TEST(Status, PivotDiagnosticsTrackExtremesAndGrowth) {
  fault::PivotDiagnostics d;
  d.observe(2.0, 8.0, 0);
  d.observe(0.5, 4.0, 3);
  EXPECT_DOUBLE_EQ(d.growth(), 16.0);
  EXPECT_EQ(d.min_pivot_block_row, 3);

  fault::PivotDiagnostics other;
  other.observe(0.25, 16.0, 7);
  d.merge(other);
  EXPECT_DOUBLE_EQ(d.growth(), 64.0);
  EXPECT_EQ(d.min_pivot_block_row, 7);

  fault::PivotDiagnostics sing;
  sing.singular_info = 5;
  EXPECT_TRUE(std::isinf(sing.growth()));
}

// --------------------------------------------------------------- fault plan


TEST(FaultPlan, ChecksumDetectsASingleFlippedBit) {
  std::vector<std::byte> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = std::byte(i * 7);
  const std::uint64_t before = fault::checksum(payload);
  payload[13] ^= std::byte{0x10};
  EXPECT_NE(fault::checksum(payload), before);
}

// ---------------------------------------------------- banded-LU fallback

TEST(BandedLu, MatchesDirectSolveOnRandomSystem) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 24, 3, 11);
  const auto b = make_rhs(24, 3, 4, 12);
  const auto x = btds::banded_lu_solve(sys, b);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12);
}

TEST(BandedLu, SolvesWhereBlockThomasBreaksDown) {
  // A planted exactly-singular diagonal block kills block Thomas (no
  // inter-block pivoting) but is routine for the scalar banded LU with
  // partial pivoting — the whole point of the fallback rung.
  auto sys = btds::make_near_singular(16, 4, 0.0, 5);
  EXPECT_THROW(btds::ThomasFactorization::factor(sys, btds::PivotKind::kLu),
               fault::SingularPivotError);
  const auto b = make_rhs(16, 4, 3, 6);
  const auto x = btds::banded_lu_solve(sys, b);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10);
}

TEST(BandedLu, ReportsExactSingularity) {
  // Zero matrix: singular beyond repair; must throw, not crash.
  btds::BlockTridiag sys(4, 2);
  EXPECT_THROW(btds::BandedLuFactorization::factor(sys), fault::SingularPivotError);
}

TEST(BandedLu, SolveRejectsAWrongRowCount) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 6, 2, 11);
  const auto f = btds::BandedLuFactorization::factor(sys);
  const la::Matrix b(sys.dim() + 2, 1);
  try {
    (void)f.solve(b);
    FAIL() << "expected fault::ShapeMismatchError";
  } catch (const fault::ShapeMismatchError& e) {
    EXPECT_EQ(e.got(), sys.dim() + 2);
    EXPECT_EQ(e.expected(), sys.dim());
  }
}

// -------------------------------------------------------------- generators

TEST(Generators, ConditionedSystemShowsPivotGrowth) {
  const auto sys = btds::make_conditioned(16, 3, 1e8, 3);
  const auto f = btds::ThomasFactorization::factor(sys, btds::PivotKind::kLu);
  EXPECT_GT(f.pivot_diagnostics().growth(), 1e4);
  const auto b = make_rhs(16, 3, 2, 4);
  const auto x = btds::banded_lu_solve(sys, b);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-6);
}

TEST(Generators, NearSingularEpsilonControlsPivot) {
  const auto sys = btds::make_near_singular(8, 3, 1e-13, 9);
  const auto f = btds::ThomasFactorization::factor(sys, btds::PivotKind::kLu);
  EXPECT_GT(f.pivot_diagnostics().growth(), 1e10);
}

// ------------------------------------------------------- typed recv errors

TEST(Comm, SizeMismatchedReceiveThrowsMessageSizeError) {
  EXPECT_THROW(
      test::run_ranks(2,
                 [](mpsim::Comm& comm) {
                   const double payload[3] = {1.0, 2.0, 3.0};
                   if (comm.rank() == 0) {
                     comm.send(1, 5, std::span<const double>(payload, 3));
                   } else {
                     double out[2];
                     comm.recv_into(0, 5, std::span<double>(out, 2));
                   }
                 },
                 charged()),
      fault::MessageSizeError);
}

// ------------------------------------------------- the degradation ladder

core::Session make_session(const btds::BlockTridiag& sys, fault::BreakdownPolicy policy,
                           fault::FaultPlan* plan = nullptr, int threads = 1) {
  mpsim::EngineOptions engine = charged();
  engine.on_breakdown = policy;
  engine.threads_per_rank = threads;
  if (plan != nullptr) {
    engine.fault_plan = plan;
    engine.recv_timeout_wall = 10.0;
  }
  return core::Session(core::Method::kArd, sys, 4, {.engine = engine});
}

TEST(Ladder, SingularPivotFailsFastByDefault) {
  auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3, 21);
  btds::plant_singular_pivot(sys, 0);
  auto session = make_session(sys, fault::BreakdownPolicy::kFailFast);
  EXPECT_THROW(session.factor(), fault::SingularPivotError);
}

TEST(Ladder, SingularPivotDegradesToExactFallback) {
  auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3, 21);
  btds::plant_singular_pivot(sys, 0);
  const auto b = make_rhs(16, 3, 5, 22);
  auto session = make_session(sys, fault::BreakdownPolicy::kFallback);
  const auto x = session.solve(b);
  EXPECT_TRUE(session.degraded());
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10);
  ASSERT_EQ(session.outcomes().size(), 2u);
  EXPECT_EQ(session.outcomes()[0].phase, "factor");
  EXPECT_EQ(session.outcomes()[0].action, "fallback");
  EXPECT_EQ(session.outcomes()[0].status.code(), fault::ErrorCode::kSingularPivot);
  EXPECT_EQ(session.outcomes()[1].action, "fallback");
}

TEST(Ladder, BreakdownRefinesUnderRefinePolicy) {
  auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3, 23);
  btds::plant_singular_pivot(sys, 0, 1e-13);  // near-singular: huge growth
  const auto b = make_rhs(16, 3, 5, 24);
  auto session = make_session(sys, fault::BreakdownPolicy::kRefine);
  const auto x = session.solve(b);
  EXPECT_TRUE(session.breakdown());
  EXPECT_FALSE(session.degraded());
  EXPECT_GT(session.pivot_growth(), 1e12);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10);
  ASSERT_EQ(session.outcomes().size(), 2u);
  EXPECT_EQ(session.outcomes()[1].action, "refine");
}

TEST(Ladder, DeterministicAcrossThreadCounts) {
  auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3, 25);
  btds::plant_singular_pivot(sys, 0);
  const auto b = make_rhs(16, 3, 5, 26);

  auto s1 = make_session(sys, fault::BreakdownPolicy::kFallback, nullptr, 1);
  auto s4 = make_session(sys, fault::BreakdownPolicy::kFallback, nullptr, 4);
  const auto x1 = s1.solve(b);
  const auto x4 = s4.solve(b);
  ASSERT_EQ(x1.size(), x4.size());
  for (la::index_t i = 0; i < x1.rows(); ++i) {
    for (la::index_t j = 0; j < x1.cols(); ++j) {
      ASSERT_EQ(x1(i, j), x4(i, j)) << "at (" << i << "," << j << ")";
    }
  }
  ASSERT_EQ(s1.outcomes().size(), s4.outcomes().size());
  for (std::size_t k = 0; k < s1.outcomes().size(); ++k) {
    EXPECT_EQ(s1.outcomes()[k].action, s4.outcomes()[k].action);
  }
}

// -------------------------------------------------- fault matrix x policy

struct MatrixCase {
  fault::FaultKind kind;
  fault::BreakdownPolicy policy;
  bool expect_throw;  ///< only detectable faults under failfast abort a run
};

class FaultMatrix : public ::testing::TestWithParam<MatrixCase> {};

fault::FaultPlan plan_for(fault::FaultKind kind) {
  fault::FaultPlan plan;
  switch (kind) {
    case fault::FaultKind::kDelay:
      plan.delay_message(1, 2, 5e-3);
      break;
    case fault::FaultKind::kDuplicate:
      plan.duplicate_message(1, 2);
      break;
    case fault::FaultKind::kBitFlip:
      plan.flip_bit(1, 2, 17);
      break;
    case fault::FaultKind::kStraggle:
      plan.straggle(1, 2, 5e-3);
      break;
    case fault::FaultKind::kCrash:
      plan.crash_before_send(1, 2);
      break;
  }
  return plan;
}

TEST_P(FaultMatrix, EveryInjectedFaultIsHandledPerPolicy) {
  const MatrixCase c = GetParam();
  const auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3, 31);
  const auto b = make_rhs(16, 3, 4, 32);
  fault::FaultPlan plan = plan_for(c.kind);
  auto session = make_session(sys, c.policy, &plan);
  if (c.expect_throw) {
    EXPECT_THROW(session.solve(b), fault::SolveError);
  } else {
    const auto x = session.solve(b);
    EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10);
    EXPECT_EQ(plan.injected().size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllPolicies, FaultMatrix,
    ::testing::Values(
        // Benign injections (no data damage) succeed under every policy.
        MatrixCase{fault::FaultKind::kDelay, fault::BreakdownPolicy::kFailFast, false},
        MatrixCase{fault::FaultKind::kDelay, fault::BreakdownPolicy::kFallback, false},
        MatrixCase{fault::FaultKind::kDuplicate, fault::BreakdownPolicy::kFailFast, false},
        MatrixCase{fault::FaultKind::kDuplicate, fault::BreakdownPolicy::kFallback, false},
        MatrixCase{fault::FaultKind::kStraggle, fault::BreakdownPolicy::kFailFast, false},
        MatrixCase{fault::FaultKind::kStraggle, fault::BreakdownPolicy::kFallback, false},
        // Destructive injections abort under failfast, recover by retry
        // under the tolerant policies (the one-shot fault does not refire).
        MatrixCase{fault::FaultKind::kBitFlip, fault::BreakdownPolicy::kFailFast, true},
        MatrixCase{fault::FaultKind::kBitFlip, fault::BreakdownPolicy::kRefine, false},
        MatrixCase{fault::FaultKind::kBitFlip, fault::BreakdownPolicy::kFallback, false},
        MatrixCase{fault::FaultKind::kCrash, fault::BreakdownPolicy::kFailFast, true},
        MatrixCase{fault::FaultKind::kCrash, fault::BreakdownPolicy::kRefine, false},
        MatrixCase{fault::FaultKind::kCrash, fault::BreakdownPolicy::kFallback, false}));

TEST(FaultRecovery, TransientRetryIsLoggedInOutcomes) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3, 41);
  const auto b = make_rhs(16, 3, 4, 42);
  fault::FaultPlan plan;
  plan.flip_bit(1, 2, 9);
  auto session = make_session(sys, fault::BreakdownPolicy::kFallback, &plan);
  const auto x = session.solve(b);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10);
  EXPECT_EQ(plan.detected().size(), 1u);
  int retries = 0;
  for (const auto& o : session.outcomes()) retries += o.retries;
  EXPECT_GE(retries, 1);
}

TEST(FaultRecovery, DelayTripsTheVirtualDeadlineMonitor) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3, 43);
  const auto b = make_rhs(16, 3, 4, 44);
  fault::FaultPlan plan;
  plan.delay_message(1, 2, 5e-3);
  mpsim::EngineOptions engine = charged();
  engine.fault_plan = &plan;
  engine.virtual_deadline = 2e-3;
  core::Session session(core::Method::kArd, sys, 4, {.engine = engine});
  const auto x = session.solve(b);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10);
  bool saw_delay_detection = false;
  for (const auto& e : plan.detected()) {
    if (e.kind == fault::FaultKind::kDelay) saw_delay_detection = true;
  }
  EXPECT_TRUE(saw_delay_detection);
}

// ----------------------------------------------------------- zero overhead

TEST(ZeroCost, EmptyPlanLeavesVirtualTimesBitIdentical) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3, 51);
  const auto b = make_rhs(16, 3, 4, 52);

  auto bare = make_session(sys, fault::BreakdownPolicy::kFailFast);
  const auto x_bare = bare.solve(b);

  fault::FaultPlan empty;  // installed but empty: engine must ignore it
  auto hooked = make_session(sys, fault::BreakdownPolicy::kFailFast, &empty);
  const auto x_hooked = hooked.solve(b);

  EXPECT_EQ(bare.factor_vtime(), hooked.factor_vtime());
  ASSERT_EQ(bare.solve_vtimes().size(), hooked.solve_vtimes().size());
  EXPECT_EQ(bare.solve_vtimes()[0], hooked.solve_vtimes()[0]);
  for (la::index_t i = 0; i < x_bare.rows(); ++i) {
    for (la::index_t j = 0; j < x_bare.cols(); ++j) {
      ASSERT_EQ(x_bare(i, j), x_hooked(i, j));
    }
  }
}

}  // namespace
}  // namespace ardbt
