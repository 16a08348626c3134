#include "bench/ablation/transfer_rd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/solver.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::ablation {
namespace {

using btds::BlockTridiag;
using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::Matrix;

/// The ablation's one-shot driver, with the receive timeout every test
/// engine run carries.
Matrix transfer_solve(const BlockTridiag& sys, const Matrix& b, int p, bool rescale = true) {
  return transfer_rd_solve(sys, b, p, {.rescale = rescale},
                           {.recv_timeout_wall = test::kRecvTimeoutWall});
}

double transfer_residual(const BlockTridiag& sys, const Matrix& b, int p, bool rescale = true) {
  return btds::relative_residual(sys, transfer_solve(sys, b, p, rescale), b);
}

TEST(TransferRd, TypedErrors) {
  {
    const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, 2, 2);
    const btds::RowPartition part(2, 3);
    EXPECT_THROW(test::run_ranks(3, [&](mpsim::Comm& comm) {
                   (void)TransferRdFactorization::factor(comm, sys, part);
                 }),
                 fault::InvalidArgumentError);
  }
  {
    BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 3, 2);
    sys.upper(0) = Matrix(2, 2);
    const btds::RowPartition part(3, 1);
    EXPECT_THROW(test::run_ranks(1, [&](mpsim::Comm& comm) {
                   (void)TransferRdFactorization::factor(comm, sys, part);
                 }),
                 fault::SingularPivotError);
  }
  // [[0, 1], [1, 1]] on two ranks: rank 0's block-LU pivot U_0 = -D_0 is
  // zero, and rank 1's entry pair has Y = 0.
  BlockTridiag sys(2, 1);
  sys.upper(0)(0, 0) = 1.0;
  sys.lower(1)(0, 0) = 1.0;
  sys.diag(1)(0, 0) = 1.0;
  const btds::RowPartition part(2, 2);
  std::string what[2];
  test::run_ranks(2, [&](mpsim::Comm& comm) {
    try {
      (void)TransferRdFactorization::factor(comm, sys, part);
    } catch (const fault::SingularPivotError& e) {
      what[comm.rank()] = e.what();
    }
  });
  EXPECT_NE(what[0].find("ablation::transfer_rd_pivot"), std::string::npos) << what[0];
  EXPECT_NE(what[1].find("ablation::transfer_rd_pair"), std::string::npos) << what[1];
}

TEST(TransferRd, SolveRejectsWrongShapes) {
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 8, 2);
  const btds::RowPartition part(8, 2);
  const Matrix b = make_rhs(8, 2, 3);
  const struct {
    Matrix b, x;
  } bad[] = {{Matrix(15, 3), Matrix(15, 3)}, {b, Matrix(14, 3)}, {b, Matrix(16, 2)}};
  for (const auto& c : bad) {
    Matrix x = c.x;
    EXPECT_THROW(test::run_ranks(2, [&](mpsim::Comm& comm) {
                   const auto f = TransferRdFactorization::factor(comm, sys, part);
                   f.solve(comm, c.b, x);
                 }),
                 fault::ShapeMismatchError)
        << c.b.rows() << "x" << c.b.cols() << " into " << x.rows() << "x" << x.cols();
  }
}

TEST(TransferRd, AccurateForSmallN) {
  for (ProblemKind kind : {ProblemKind::kDiagDominant, ProblemKind::kPoisson2D,
                           ProblemKind::kToeplitz}) {
    for (int p : {1, 2, 3, 4}) {
      const BlockTridiag sys = make_problem(kind, 8, 3);
      const Matrix b = make_rhs(8, 3, 2);
      EXPECT_LT(transfer_residual(sys, b, p), 1e-10) << btds::to_string(kind) << " P=" << p;
    }
  }
}

TEST(TransferRd, ScalarBlocksStayAccurateAtLargeN) {
  // With M = 1 there is a single growing mode, no intra-block spread, so
  // the pair representation does not degrade — the classical reason
  // scalar recursive doubling is a textbook algorithm.
  const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, 2048, 1);
  const Matrix b = make_rhs(2048, 1, 2);
  EXPECT_LT(transfer_residual(sys, b, 4), 1e-10);
}

TEST(TransferRd, BlockSpreadDegradesAccuracyWithN) {
  // The documented instability (DESIGN.md 1.2): error grows geometrically
  // in N for block systems with spread block spectra. This test pins the
  // qualitative behaviour: fine at N=8, degraded by several orders at
  // N=32, useless by N=40.
  const auto residual_at = [&](la::index_t n) {
    const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, n, 3);
    const Matrix b = make_rhs(n, 3, 1);
    return transfer_residual(sys, b, 2);
  };
  const double r8 = residual_at(8);
  const double r32 = residual_at(32);
  EXPECT_LT(r8, 1e-12);
  EXPECT_GT(r32, r8 * 1e3);  // at least three orders lost
}

TEST(TransferRd, MatchesArdWhereStable) {
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 12, 2);
  const Matrix b = make_rhs(12, 2, 3);
  const Matrix x_ard = core::solve(core::Method::kArd, sys, b, 3).x;
  const Matrix x_trd = transfer_solve(sys, b, 3);
  for (la::index_t i = 0; i < b.rows(); ++i) {
    for (la::index_t j = 0; j < b.cols(); ++j) EXPECT_NEAR(x_trd(i, j), x_ard(i, j), 1e-8);
  }
}

TEST(TransferRd, RescalingKeepsPrefixesFinite) {
  // Scalar Poisson transfer matrices have spectral radius ~3.7; without
  // rescaling the prefix overflows around N ~ 540 (1e308 ~ 3.7^540) and
  // the solve dies; with rescaling it stays accurate.
  const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, 1200, 1);
  const Matrix b = make_rhs(1200, 1, 1);
  EXPECT_LT(transfer_residual(sys, b, 2, /*rescale=*/true), 1e-10);

  bool failed = false;
  try {
    const double r = transfer_residual(sys, b, 2, /*rescale=*/false);
    failed = !(r < 1e-6) || !std::isfinite(r);
  } catch (const std::runtime_error&) {
    failed = true;  // singular pivot from overflowed prefix
  }
  EXPECT_TRUE(failed) << "expected the unscaled prefix to overflow";
}

}  // namespace
}  // namespace ardbt::ablation
