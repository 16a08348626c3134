#include "src/core/ard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/btds/distributed.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/flops.hpp"
#include "src/core/rd.hpp"
#include "src/core/solver.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::core {
namespace {

using btds::BlockTridiag;
using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::Matrix;

/// Run ARD end to end on `nranks` simulated ranks and return X.
Matrix ard_driver(const BlockTridiag& sys, const Matrix& b, int nranks,
                  const ArdOptions& opts = {}) {
  return solve(Method::kArd, sys, b, nranks, {.ard = opts}).x;
}

TEST(Ard, SolvesTinySystemOnOneRank) {
  const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, 4, 2);
  const Matrix b = make_rhs(4, 2, 1);
  const Matrix x = ard_driver(sys, b, 1);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12);
}

TEST(Ard, MatchesThomasOnPoisson) {
  const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, 32, 4);
  const Matrix b = make_rhs(32, 4, 3);
  const Matrix x_ard = ard_driver(sys, b, 4);
  const Matrix x_thomas = btds::thomas_solve(sys, b);
  for (la::index_t i = 0; i < x_ard.rows(); ++i) {
    for (la::index_t j = 0; j < x_ard.cols(); ++j) {
      EXPECT_NEAR(x_ard(i, j), x_thomas(i, j), 1e-9) << "(" << i << "," << j << ")";
    }
  }
}

/// Property sweep: every generator, several shapes, rank counts (including
/// non-powers of two), and RHS widths must produce small residuals.
class ArdSweep : public ::testing::TestWithParam<
                     std::tuple<ProblemKind, /*N=*/la::index_t, /*M=*/la::index_t,
                                /*P=*/int, /*R=*/la::index_t>> {};

TEST_P(ArdSweep, ResidualIsSmall) {
  const auto [kind, n, m, p, r] = GetParam();
  if (n < p) GTEST_SKIP() << "partition requires N >= P";
  const BlockTridiag sys = make_problem(kind, n, m);
  const Matrix b = make_rhs(n, m, r);
  const Matrix x = ard_driver(sys, b, p);
  const double tol = kind == ProblemKind::kIllConditioned ? 1e-6 : 1e-9;
  EXPECT_LT(btds::relative_residual(sys, x, b), tol)
      << to_string(kind) << " N=" << n << " M=" << m << " P=" << p << " R=" << r;
}

std::string sweep_name(const ::testing::TestParamInfo<ArdSweep::ParamType>& info) {
  const auto kind = std::get<0>(info.param);
  return std::string(btds::to_string(kind)) + "_N" + std::to_string(std::get<1>(info.param)) +
         "_M" + std::to_string(std::get<2>(info.param)) + "_P" +
         std::to_string(std::get<3>(info.param)) + "_R" +
         std::to_string(std::get<4>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ArdSweep,
    ::testing::Combine(::testing::ValuesIn(btds::kAllProblemKinds),
                       ::testing::Values<la::index_t>(1, 2, 5, 16, 33),
                       ::testing::Values<la::index_t>(1, 3, 8),
                       ::testing::Values(1, 2, 3, 4, 7), ::testing::Values<la::index_t>(1, 4)),
    sweep_name);

TEST(Ard, LargeNStaysAccurate) {
  // The shooting formulation would have lost all accuracy long before
  // N = 1024 (see test_shooting); the ratio formulation must not.
  const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, 1024, 3);
  const Matrix b = make_rhs(1024, 3, 2);
  const Matrix x = ard_driver(sys, b, 4);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10);
}

TEST(Ard, FactorReusedAcrossBatchesGivesSameAnswers) {
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 24, 3);
  const Matrix b1 = make_rhs(24, 3, 2, /*seed=*/1);
  const Matrix b2 = make_rhs(24, 3, 5, /*seed=*/2);
  const auto session = ard_session(sys, {&b1, &b2}, 3);
  ASSERT_EQ(session.x.size(), 2u);
  EXPECT_LT(btds::relative_residual(sys, session.x[0], b1), 1e-10);
  EXPECT_LT(btds::relative_residual(sys, session.x[1], b2), 1e-10);
  EXPECT_GT(session.storage_bytes, 0u);
}

TEST(Ard, RdBatchedAndPerRhsAgreeWithArd) {
  const BlockTridiag sys = make_problem(ProblemKind::kToeplitz, 20, 3);
  const Matrix b = make_rhs(20, 3, 3);
  const Matrix x_ard = solve(Method::kArd, sys, b, 2).x;
  const Matrix x_rd = solve(Method::kRdBatched, sys, b, 2).x;
  const Matrix x_per = solve(Method::kRdPerRhs, sys, b, 2).x;
  for (la::index_t i = 0; i < b.rows(); ++i) {
    for (la::index_t j = 0; j < b.cols(); ++j) {
      EXPECT_NEAR(x_rd(i, j), x_ard(i, j), 1e-10);
      EXPECT_NEAR(x_per(i, j), x_ard(i, j), 1e-10);
    }
  }
}

TEST(Ard, SolutionIndependentOfRankCount) {
  const BlockTridiag sys = make_problem(ProblemKind::kConvectionDiffusion, 40, 3);
  const Matrix b = make_rhs(40, 3, 2);
  const Matrix x1 = ard_driver(sys, b, 1);
  for (int p : {2, 4, 5, 8}) {
    const Matrix x_p = ard_driver(sys, b, p);
    for (la::index_t i = 0; i < b.rows(); ++i) {
      for (la::index_t j = 0; j < b.cols(); ++j) {
        EXPECT_NEAR(x_p(i, j), x1(i, j), 1e-8) << "P=" << p;
      }
    }
  }
}

TEST(Ard, ThrowsWhenMoreRanksThanRows) {
  const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, 2, 2);
  const Matrix b = make_rhs(2, 2, 1);
  EXPECT_THROW(ard_driver(sys, b, 3), fault::InvalidArgumentError);
  // The rank-level entry point rejects an empty segment by itself too,
  // and a partition made for another rank count.
  const btds::RowPartition part(2, 3);
  EXPECT_THROW(test::run_ranks(3, [&](mpsim::Comm& comm) {
                 (void)ArdFactorization::factor(comm, sys, part);
               }),
               fault::InvalidArgumentError);
  EXPECT_THROW(test::run_ranks(1, [&](mpsim::Comm& comm) {
                 (void)ArdFactorization::factor(comm, sys, btds::RowPartition(2, 2));
               }),
               fault::InvalidArgumentError);
}

TEST(Ard, FactorAndUpdateRejectSliceWithoutTheRanksRows) {
  // Every rank passes rank 0's slice; ranks 1 and 2 do not hold their
  // rows and fail typed before reading a block.
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 12, 2);
  const btds::RowPartition part(12, 3);
  const BlockTridiag first = btds::slice(sys, part, 0);
  EXPECT_THROW(test::run_ranks(3, [&](mpsim::Comm& comm) {
                 (void)ArdFactorization::factor(comm, first, part);
               }),
               fault::InvalidArgumentError);
  EXPECT_THROW(test::run_ranks(3, [&](mpsim::Comm& comm) {
                 const BlockTridiag own = btds::slice(sys, part, comm.rank());
                 ArdFactorization f = ArdFactorization::factor(comm, own, part);
                 f.update(comm, first, /*rows_changed=*/comm.rank() == 2);
               }),
               fault::InvalidArgumentError);
}

TEST(Ard, SolveRejectsWrongShapes) {
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 8, 2);
  const btds::RowPartition part(8, 2);
  const Matrix b = make_rhs(8, 2, 3);
  const struct {
    Matrix b, x;
  } bad[] = {{Matrix(15, 3), Matrix(15, 3)}, {b, Matrix(14, 3)}, {b, Matrix(16, 2)}};
  for (const auto& c : bad) {
    Matrix x = c.x;
    EXPECT_THROW(test::run_ranks(2, [&](mpsim::Comm& comm) {
                   const auto f = ArdFactorization::factor(comm, sys, part);
                   f.solve(comm, c.b, x);
                 }),
                 fault::ShapeMismatchError)
        << c.b.rows() << "x" << c.b.cols() << " into " << x.rows() << "x" << x.cols();
  }
}

TEST(Rd, SolvePerRhsRejectsWrongShapes) {
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 8, 2);
  const btds::RowPartition part(8, 2);
  const Matrix b = make_rhs(8, 2, 3);
  const struct {
    Matrix b, x;
  } bad[] = {{Matrix(15, 3), Matrix(15, 3)}, {b, Matrix(14, 3)}, {b, Matrix(16, 2)}};
  for (const auto& c : bad) {
    Matrix x = c.x;
    EXPECT_THROW(test::run_ranks(2, [&](mpsim::Comm& comm) {
                   rd_solve_per_rhs(comm, sys, part, c.b, x);
                 }),
                 fault::ShapeMismatchError)
        << c.b.rows() << "x" << c.b.cols() << " into " << x.rows() << "x" << x.cols();
  }
}

TEST(Ard, SolveInplaceRejectsWrongRowCount) {
  // Each rank owns 4 block rows of order 2: its rows are 8 scalar rows.
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 8, 2);
  const btds::RowPartition part(8, 2);
  for (const la::index_t rows : {la::index_t{7}, la::index_t{9}, la::index_t{16}}) {
    EXPECT_THROW(test::run_ranks(2, [&](mpsim::Comm& comm) {
                   const auto f = ArdFactorization::factor(comm, sys, part);
                   Matrix x(rows, 2);
                   f.solve_inplace(comm, x.view());
                 }),
                 fault::ShapeMismatchError)
        << "rows=" << rows;
  }
}

/// Two scalar rows [[1, 1], [1, 1 + eps]] on two ranks: each rank's
/// one-row segment is a unit pivot, so only the interface system K sees
/// how close the global matrix is to singular.
BlockTridiag coupled_pair(double eps) {
  BlockTridiag sys(2, 1);
  sys.diag(0)(0, 0) = 1.0;
  sys.diag(1)(0, 0) = 1.0 + eps;
  sys.upper(0)(0, 0) = 1.0;
  sys.lower(1)(0, 0) = 1.0;
  return sys;
}

TEST(Ard, SingularInterfaceThrowsTypedPivotError) {
  const BlockTridiag sys = coupled_pair(0.0);
  const btds::RowPartition part(2, 2);
  EXPECT_THROW(test::run_ranks(2, [&](mpsim::Comm& comm) {
                 (void)ArdFactorization::factor(comm, sys, part);
               }),
               fault::SingularPivotError);
}

TEST(Ard, BreakdownMonitorTripsOnBadInterface) {
  const BlockTridiag sys = coupled_pair(1e-14);
  const btds::RowPartition part(2, 2);
  std::vector<double> growth(2, 0.0);
  test::run_ranks(2, [&](mpsim::Comm& comm) {
    const auto f = ArdFactorization::factor(comm, sys, part);
    growth[static_cast<std::size_t>(comm.rank())] = f.diagnostics().growth();
  });
  const double threshold = ArdOptions{}.breakdown_growth_threshold;
  EXPECT_GT(growth[0], threshold);
  EXPECT_GT(growth[1], threshold);
  // A well-separated pair keeps both readings near 1.
  const BlockTridiag ok = coupled_pair(1.0);
  test::run_ranks(2, [&](mpsim::Comm& comm) {
    const auto f = ArdFactorization::factor(comm, ok, part);
    EXPECT_LT(f.diagnostics().growth(), 10.0);
  });
}

TEST(Ard, FlopCounterMatchesAnalyticFormulaWithinFactor) {
  // P divides N, so every rank owns N/P rows; the busiest rank (rank 1,
  // whose V costs more than rank 0's W, at P = 2; an interior one from
  // P = 3 on) must charge what flops.hpp predicts.
  const la::index_t n = 512, m = 8, r = 16;
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const Matrix b = make_rhs(n, m, r);
  for (const int p : {1, 2, 4}) {
    Matrix x(b.rows(), b.cols());
    const btds::RowPartition part(n, p);
    std::vector<double> charged(static_cast<std::size_t>(p), 0.0);
    test::run_ranks(p, [&](mpsim::Comm& comm) {
      const double f0 = comm.stats().flops_charged;
      const auto f = ArdFactorization::factor(comm, sys, part);
      f.solve(comm, b, x);
      charged[static_cast<std::size_t>(comm.rank())] = comm.stats().flops_charged - f0;
    });
    const double measured = *std::max_element(charged.begin(), charged.end());
    const double predicted = flops::ard_factor(n, m, p) + flops::ard_solve(n, m, r, p);
    EXPECT_NEAR(measured / predicted, 1.0, 0.05) << "P=" << p << ": " << measured << " vs "
                                                 << predicted;
    EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12) << "P=" << p;
  }
}

TEST(Ard, SerialFactorChargesExactlyTheThomasFactor) {
  // One rank has no neighbour, so it computes no spikes and runs no scan
  // or interface system: its factor charge is serial block Thomas's.
  const la::index_t n = 300, m = 8;
  const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, n, m);
  for (const btds::PivotKind pivot : {btds::PivotKind::kLu, btds::PivotKind::kCholesky}) {
    double charged = 0.0;
    test::run_ranks(1, [&](mpsim::Comm& comm) {
      const double f0 = comm.stats().flops_charged;
      (void)ArdFactorization::factor(comm, sys, btds::RowPartition(n, 1), {.pivot = pivot});
      charged = comm.stats().flops_charged - f0;
    });
    EXPECT_EQ(charged, btds::ThomasFactorization::factor_flops(n, m, pivot));
  }
  EXPECT_EQ(flops::ard_factor(n, m, 1), btds::ThomasFactorization::factor_flops(n, m));
}

}  // namespace
}  // namespace ardbt::core
