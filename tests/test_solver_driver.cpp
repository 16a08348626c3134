#include "src/core/solver.hpp"

#include <gtest/gtest.h>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/flops.hpp"

namespace ardbt::core {
namespace {

using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;

TEST(Driver, MethodNames) {
  EXPECT_EQ(to_string(Method::kRdBatched), "rd");
  EXPECT_EQ(to_string(Method::kRdPerRhs), "rd-per-rhs");
  EXPECT_EQ(to_string(Method::kArd), "ard");
  EXPECT_EQ(to_string(Method::kPcr), "pcr");
}

TEST(Driver, AllMethodsSolve) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3);
  const auto b = make_rhs(16, 3, 2);
  for (Method method : {Method::kRdBatched, Method::kRdPerRhs, Method::kArd, Method::kPcr}) {
    const DriverResult res = solve(method, sys, b, 4);
    EXPECT_LT(btds::relative_residual(sys, res.x, b), 1e-9) << to_string(method);
    EXPECT_GE(res.solve_vtime, 0.0);
  }
}

TEST(Driver, ArdReportsBothPhases) {
  const auto sys = make_problem(ProblemKind::kPoisson2D, 32, 4);
  const auto b = make_rhs(32, 4, 8);
  const DriverResult res = solve(Method::kArd, sys, b, 4);
  EXPECT_GT(res.factor_vtime, 0.0);
  EXPECT_GT(res.solve_vtime, 0.0);
}

TEST(Driver, ChargedFlopsModeGivesDeterministicVirtualTime) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 16, 2);
  const auto b = make_rhs(16, 2, 2);
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  const DriverResult a = solve(Method::kArd, sys, b, 4, {.engine = engine});
  const DriverResult c = solve(Method::kArd, sys, b, 4, {.engine = engine});
  EXPECT_DOUBLE_EQ(a.report.max_virtual_time(), c.report.max_virtual_time());
  EXPECT_GT(a.report.max_virtual_time(), 0.0);
}

TEST(Driver, SessionSolvesEveryBatch) {
  const auto sys = make_problem(ProblemKind::kConvectionDiffusion, 20, 3);
  const auto b1 = make_rhs(20, 3, 1, 1);
  const auto b2 = make_rhs(20, 3, 6, 2);
  const auto b3 = make_rhs(20, 3, 2, 3);
  const SessionResult session = ard_session(sys, {&b1, &b2, &b3}, 3);
  ASSERT_EQ(session.x.size(), 3u);
  ASSERT_EQ(session.solve_vtimes.size(), 3u);
  EXPECT_LT(btds::relative_residual(sys, session.x[0], b1), 1e-10);
  EXPECT_LT(btds::relative_residual(sys, session.x[1], b2), 1e-10);
  EXPECT_LT(btds::relative_residual(sys, session.x[2], b3), 1e-10);
  EXPECT_GT(session.factor_vtime, 0.0);
  EXPECT_GT(session.storage_bytes, 0u);
}

TEST(Driver, SessionRejectsNullBatch) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 8, 2);
  EXPECT_THROW(ard_session(sys, {nullptr}, 2), fault::InvalidArgumentError);
  try {
    ard_session(sys, {nullptr}, 2);
    FAIL() << "null batch must throw";
  } catch (const fault::SolveError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kInvalidArgument);
  }
}

TEST(Driver, PerRhsChargesMoreFlopsThanArd) {
  // The heart of the paper: per-RHS recursive doubling re-does the
  // factor-phase flops for every right-hand side.
  const auto sys = make_problem(ProblemKind::kDiagDominant, 32, 4);
  const auto b = make_rhs(32, 4, 8);
  const DriverResult per = solve(Method::kRdPerRhs, sys, b, 4);
  const DriverResult ard = solve(Method::kArd, sys, b, 4);
  const double per_flops = per.report.totals().flops_charged;
  const double ard_flops = ard.report.totals().flops_charged;
  EXPECT_GT(per_flops, 3.0 * ard_flops);
}

}  // namespace
}  // namespace ardbt::core
