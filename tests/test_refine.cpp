#include "src/core/refine.hpp"

#include <gtest/gtest.h>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::core {
namespace {

using btds::BlockTridiag;
using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::Matrix;

/// solve_refined on this rank's row views of the shared `b` and `x`.
RefineResult refine_rows(mpsim::Comm& comm, const ArdFactorization& f, const BlockTridiag& sys,
                         const btds::RowPartition& part, const Matrix& b, Matrix& x,
                         int max_steps = 3, double tol = 1e-14) {
  const la::index_t lo = part.begin(comm.rank()) * sys.block_size();
  const la::index_t rows = part.count(comm.rank()) * sys.block_size();
  return solve_refined(comm, f, sys, part, b.block(lo, 0, rows, b.cols()),
                       x.block(lo, 0, rows, x.cols()), max_steps, tol);
}

TEST(Refine, ResidualDecreasesMonotonicallyAndConverges) {
  const BlockTridiag sys = make_problem(ProblemKind::kIllConditioned, 64, 4);
  const Matrix b = make_rhs(64, 4, 3);
  Matrix x(b.rows(), b.cols());
  RefineResult result;
  const btds::RowPartition part(64, 4);
  test::run_ranks(4, [&](mpsim::Comm& comm) {
    const auto f = ArdFactorization::factor(comm, sys, part);
    // tol = 0 forces every step so the monotonicity of the recorded
    // residual norms can be checked.
    const RefineResult local = refine_rows(comm, f, sys, part, b, x, /*max_steps=*/3,
                                           /*tol=*/0.0);
    if (comm.rank() == 0) result = local;
  });
  ASSERT_GE(result.residual_norms.size(), 2u);
  for (std::size_t i = 1; i < result.residual_norms.size(); ++i) {
    EXPECT_LE(result.residual_norms[i], result.residual_norms[i - 1] * 1.5);
  }
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-13);
}

TEST(Refine, StopsEarlyWhenAlreadyConverged) {
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 16, 2);
  const Matrix b = make_rhs(16, 2, 1);
  Matrix x(b.rows(), b.cols());
  RefineResult result;
  const btds::RowPartition part(16, 2);
  test::run_ranks(2, [&](mpsim::Comm& comm) {
    const auto f = ArdFactorization::factor(comm, sys, part);
    const RefineResult local =
        refine_rows(comm, f, sys, part, b, x, /*max_steps=*/10, /*tol=*/1e-12);
    if (comm.rank() == 0) result = local;
  });
  // A well-conditioned solve is already at machine precision; refinement
  // must stop immediately rather than run 10 rounds.
  EXPECT_LE(result.steps, 1);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12);
}

TEST(Refine, WorksOnSingleRank) {
  const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, 12, 3);
  const Matrix b = make_rhs(12, 3, 2);
  Matrix x(b.rows(), b.cols());
  const btds::RowPartition part(12, 1);
  test::run_ranks(1, [&](mpsim::Comm& comm) {
    const auto f = ArdFactorization::factor(comm, sys, part);
    refine_rows(comm, f, sys, part, b, x);
  });
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-13);
}

}  // namespace
}  // namespace ardbt::core
