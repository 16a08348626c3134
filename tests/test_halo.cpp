#include "src/btds/halo.hpp"

#include <gtest/gtest.h>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/refine.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::btds {
namespace {

using la::index_t;
using la::Matrix;

TEST(Halo, ExchangeDeliversNeighbourRows) {
  const index_t n = 10, m = 2, r = 3;
  const Matrix global = make_rhs(n, m, r);
  for (int p : {1, 2, 3, 5}) {
    const RowPartition part(n, p);
    test::run_ranks(p, [&](mpsim::Comm& comm) {
      const index_t lo = part.begin(comm.rank());
      const index_t hi = part.end(comm.rank());
      const Matrix local = la::to_matrix(global.block(lo * m, 0, (hi - lo) * m, r));
      const Halo halo = exchange_halo(comm, local.view(), m, part);
      if (lo == 0) {
        EXPECT_FALSE(halo.below.has_value());
      } else {
        ASSERT_TRUE(halo.below.has_value());
        EXPECT_TRUE(*halo.below == la::to_matrix(global.block((lo - 1) * m, 0, m, r)));
      }
      if (hi == n) {
        EXPECT_FALSE(halo.above.has_value());
      } else {
        ASSERT_TRUE(halo.above.has_value());
        EXPECT_TRUE(*halo.above == la::to_matrix(global.block(hi * m, 0, m, r)));
      }
    });
  }
}

TEST(Halo, DistributedApplyMatchesSharedApply) {
  // The same rows of T x from a slice and from the shared whole system.
  const index_t n = 17, m = 3, r = 2;
  const BlockTridiag sys = make_problem(ProblemKind::kConvectionDiffusion, n, m);
  const Matrix x = make_rhs(n, m, r);
  const Matrix expected = apply(sys, x);
  for (int p : {1, 2, 4}) {
    const RowPartition part(n, p);
    test::run_ranks(p, [&](mpsim::Comm& comm) {
      const BlockTridiag local_sys = slice(sys, part, comm.rank());
      const index_t lo = part.begin(comm.rank());
      const index_t nloc = part.count(comm.rank());
      const la::ConstMatrixView x_local = x.block(lo * m, 0, nloc * m, r);
      const Matrix b_local = apply_distributed(comm, local_sys, x_local, part);
      EXPECT_TRUE(b_local == apply_distributed(comm, sys, x_local, part));
      for (index_t i = 0; i < nloc * m; ++i) {
        for (index_t j = 0; j < r; ++j) {
          EXPECT_NEAR(b_local(i, j), expected(lo * m + i, j), 1e-13) << "P=" << p;
        }
      }
    });
  }
}

TEST(Halo, DistributedApplyRejectsSliceWithoutTheRanksRows) {
  // Every rank passes rank 0's slice; rank 1 does not hold its rows and
  // fails typed before it reads a block.
  const index_t n = 8, m = 2;
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const RowPartition part(n, 2);
  const BlockTridiag first = slice(sys, part, 0);
  EXPECT_THROW(test::run_ranks(2,
                               [&](mpsim::Comm& comm) {
                                 const Matrix x(part.count(comm.rank()) * m, 1);
                                 apply_distributed(comm, first, x.view(), part);
                               }),
               fault::InvalidArgumentError);
  // A right-hand side without the rank's nloc*M rows fails typed too.
  EXPECT_THROW(test::run_ranks(2,
                               [&](mpsim::Comm& comm) {
                                 const Matrix x(part.count(comm.rank()) * m + 1, 1);
                                 apply_distributed(comm, sys, x.view(), part);
                               }),
               fault::ShapeMismatchError);
}

TEST(Halo, DistributedResidualMatchesSharedResidual) {
  const index_t n = 12, m = 2, r = 2;
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const Matrix x = make_rhs(n, m, r, /*seed=*/3);
  const Matrix b = make_rhs(n, m, r, /*seed=*/4);
  const double expected = relative_residual(sys, x, b);
  const RowPartition part(n, 3);
  test::run_ranks(3, [&](mpsim::Comm& comm) {
    const BlockTridiag local_sys = slice(sys, part, comm.rank());
    const index_t lo = part.begin(comm.rank());
    const index_t nloc = part.count(comm.rank());
    const double measured =
        relative_residual_distributed(comm, local_sys, x.block(lo * m, 0, nloc * m, r),
                                      b.block(lo * m, 0, nloc * m, r), part);
    EXPECT_NEAR(measured, expected, 1e-12 * expected + 1e-15);
  });
}

TEST(Halo, FullyDistributedRefinementConverges) {
  // End-to-end message-passing-only pipeline: scatter, factor, refined
  // solve with halo-based residuals, distributed residual check.
  const index_t n = 36, m = 4, r = 2;
  const int p = 4;
  const BlockTridiag global = make_problem(ProblemKind::kIllConditioned, n, m);
  const Matrix b = make_rhs(n, m, r);
  const RowPartition part(n, p);
  test::run_ranks(p, [&](mpsim::Comm& comm) {
    const bool root = comm.rank() == 0;
    const BlockTridiag local_sys = scatter(comm, root ? &global : nullptr, n, m, part, 0);
    const Matrix b_local = scatter_rows(comm, root ? &b : nullptr, m, part, 0);
    const auto f = core::ArdFactorization::factor(comm, local_sys, part);
    Matrix x_local(b_local.rows(), b_local.cols());
    const auto rr = core::solve_refined(comm, f, local_sys, part, b_local.view(), x_local.view(),
                                        /*max_steps=*/2);
    EXPECT_GE(rr.residual_norms.size(), 1u);
    const double res =
        relative_residual_distributed(comm, local_sys, x_local.view(), b_local.view(), part);
    EXPECT_LT(res, 1e-13);
  });
}

}  // namespace
}  // namespace ardbt::btds
