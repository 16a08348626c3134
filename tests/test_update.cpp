#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/ard.hpp"
#include "src/core/flops.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::core {
namespace {

using btds::BlockTridiag;
using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::index_t;
using la::Matrix;

TEST(Update, NoChangeReproducesSameSolution) {
  const index_t n = 32, m = 3;
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const Matrix b = make_rhs(n, m, 2);
  Matrix x_before(b.rows(), b.cols());
  Matrix x_after(b.rows(), b.cols());
  const btds::RowPartition part(n, 4);
  test::run_ranks(4, [&](mpsim::Comm& comm) {
    auto f = ArdFactorization::factor(comm, sys, part);
    f.solve(comm, b, x_before);
    f.update(comm, sys, /*rows_changed=*/false);
    f.solve(comm, b, x_after);
  });
  for (index_t i = 0; i < b.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) EXPECT_EQ(x_before(i, j), x_after(i, j));
  }
}

TEST(Update, UnchangedRanksMoveTheBorrowToTheNewSystem) {
  // A factorization reads its rank's A_i from the system it borrows.
  // update(..., rows_changed = false) with a second system object holding
  // equal rows moves every rank's borrow there, so the first object may be
  // destroyed before the next solve, whose answer is bit-identical to a
  // fresh factor of the second. Under the address sanitizer a borrow left
  // on the first object is a heap use-after-free.
  const index_t n = 40, m = 4;
  const int p = 4;
  auto first = std::make_unique<BlockTridiag>(make_problem(ProblemKind::kPoisson2D, n, m));
  const BlockTridiag second = *first;
  const Matrix b = make_rhs(n, m, 3);
  Matrix x_fresh(b.rows(), b.cols());
  Matrix x_moved(b.rows(), b.cols());
  const btds::RowPartition part(n, p);
  test::run_ranks(p, [&](mpsim::Comm& comm) {
    const auto fresh = ArdFactorization::factor(comm, second, part);
    fresh.solve(comm, b, x_fresh);
    auto f = ArdFactorization::factor(comm, *first, part);
    f.update(comm, second, /*rows_changed=*/false);
    mpsim::barrier(comm);
    if (comm.rank() == 0) first.reset();
    mpsim::barrier(comm);
    f.solve(comm, b, x_moved);
  });
  EXPECT_EQ(std::memcmp(x_moved.data().data(), x_fresh.data().data(), x_fresh.data().size_bytes()),
            0);
}

TEST(Update, TracksMatrixChangeOnOneRank) {
  const index_t n = 32, m = 3;
  const int p = 4;
  BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const Matrix b = make_rhs(n, m, 3);
  Matrix x(b.rows(), b.cols());
  const btds::RowPartition part(n, p);
  const int changed_rank = 2;

  test::run_ranks(p, [&](mpsim::Comm& comm) {
    auto f = ArdFactorization::factor(comm, sys, part);
    mpsim::barrier(comm);
    // Rank 2's rows change (a diagonal shift); everyone else's are intact.
    if (comm.rank() == 0) {
      for (index_t i = part.begin(changed_rank); i < part.end(changed_rank); ++i) {
        for (index_t d = 0; d < m; ++d) sys.diag(i)(d, d) += 1.5;
      }
    }
    mpsim::barrier(comm);
    f.update(comm, sys, /*rows_changed=*/comm.rank() == changed_rank);
    f.solve(comm, b, x);
  });
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12);
}

TEST(Update, UnchangedRanksChargeFewerFlops) {
  const index_t n = 128, m = 8;
  const int p = 4;
  BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const btds::RowPartition part(n, p);
  double factor_flops_rank1 = 0.0;
  double update_flops_rank1 = 0.0;

  test::run_ranks(p, [&](mpsim::Comm& comm) {
    const double f0 = comm.stats().flops_charged;
    auto f = ArdFactorization::factor(comm, sys, part);
    mpsim::barrier(comm);
    const double f1 = comm.stats().flops_charged;
    if (comm.rank() == 0) {
      sys.diag(0)(0, 0) += 0.5;  // only rank 0's rows change
    }
    mpsim::barrier(comm);
    f.update(comm, sys, /*rows_changed=*/comm.rank() == 0);
    mpsim::barrier(comm);
    const double f2 = comm.stats().flops_charged;
    if (comm.rank() == 1) {
      factor_flops_rank1 = f1 - f0;
      update_flops_rank1 = f2 - f1;
    }
  });
  // The unchanged rank keeps its factorization and spikes and only replays
  // the scans and rebuilds its interface system: at most the
  // rows-independent O(M^3 log P) part of the factor formula.
  EXPECT_LE(update_flops_rank1, flops::ard_factor_global(m, p));
  EXPECT_GT(update_flops_rank1, 0.0);
}

TEST(Update, RepeatedUpdatesStayAccurate) {
  const index_t n = 24, m = 2;
  BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, n, m);
  const btds::RowPartition part(n, 3);
  Matrix x(n * m, 1);

  test::run_ranks(3, [&](mpsim::Comm& comm) {
    auto f = ArdFactorization::factor(comm, sys, part);
    for (int round = 0; round < 4; ++round) {
      mpsim::barrier(comm);
      if (comm.rank() == 0) {
        // A creeping diagonal shift on every row (all ranks changed).
        for (index_t i = 0; i < n; ++i) {
          for (index_t d = 0; d < m; ++d) sys.diag(i)(d, d) += 0.25;
        }
      }
      mpsim::barrier(comm);
      f.update(comm, sys, /*rows_changed=*/true);
      const Matrix b = make_rhs(n, m, 1, static_cast<std::uint64_t>(round));
      f.solve(comm, b, x);
      mpsim::barrier(comm);
      if (comm.rank() == 0) {
        EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12) << "round " << round;
      }
      mpsim::barrier(comm);
    }
  });
}

}  // namespace
}  // namespace ardbt::core
