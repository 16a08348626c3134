#include "src/btds/distributed.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "src/btds/banded_lu.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/io.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/ard.hpp"
#include "src/core/solver.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::btds {
namespace {

using la::index_t;
using la::Matrix;

TEST(Distributed, ScatterDeliversExactSlices) {
  const index_t n = 13, m = 3;
  const BlockTridiag global = make_problem(ProblemKind::kDiagDominant, n, m);
  for (int p : {1, 2, 4, 5}) {
    const RowPartition part(n, p);
    for (int root = 0; root < p; ++root) {
      test::run_ranks(p, [&](mpsim::Comm& comm) {
        const BlockTridiag* src = comm.rank() == root ? &global : nullptr;
        const BlockTridiag local = scatter(comm, src, n, m, part, root);
        EXPECT_EQ(local.lo(), part.begin(comm.rank()));
        EXPECT_EQ(local.hi(), part.end(comm.rank()));
        for (index_t i = local.lo(); i < local.hi(); ++i) {
          EXPECT_TRUE(local.diag(i) == global.diag(i));
          if (i > 0) {
            EXPECT_TRUE(local.lower(i) == global.lower(i));
          }
          if (i + 1 < n) {
            EXPECT_TRUE(local.upper(i) == global.upper(i));
          }
        }
      });
    }
  }
}

TEST(Distributed, ScatterRejectsARootWithoutTheWholeSystem) {
  const index_t n = 9, m = 2;
  const BlockTridiag global = make_problem(ProblemKind::kToeplitz, n, m);
  const RowPartition part(n, 3);
  const BlockTridiag local = slice(global, part, 0);
  for (const BlockTridiag* src : {static_cast<const BlockTridiag*>(nullptr), &local}) {
    EXPECT_THROW(test::run_ranks(3,
                                 [&](mpsim::Comm& comm) {
                                   (void)scatter(comm, comm.rank() == 0 ? src : nullptr, n, m,
                                                 part, 0);
                                 }),
                 fault::InvalidArgumentError);
  }
  EXPECT_THROW(test::run_ranks(1,
                               [&](mpsim::Comm& comm) {
                                 (void)scatter(comm, &global, n, m + 1, RowPartition(n, 1), 0);
                               }),
               fault::InvalidArgumentError);
}

TEST(Distributed, SliceMatchesScatter) {
  const index_t n = 9, m = 2;
  const BlockTridiag global = make_problem(ProblemKind::kToeplitz, n, m);
  const RowPartition part(n, 3);
  test::run_ranks(3, [&](mpsim::Comm& comm) {
    const BlockTridiag* src = comm.rank() == 0 ? &global : nullptr;
    const BlockTridiag a = scatter(comm, src, n, m, part, 0);
    const BlockTridiag b = slice(global, part, comm.rank());
    for (index_t i = a.lo(); i < a.hi(); ++i) {
      EXPECT_TRUE(a.diag(i) == b.diag(i));
    }
  });
}

TEST(Distributed, WholeSystemEntryPointsRejectASlice) {
  // Entry points that read every row fail typed on a slice, before
  // reading a block or opening a file.
  const index_t n = 9, m = 2;
  const BlockTridiag global = make_problem(ProblemKind::kDiagDominant, n, m);
  const RowPartition part(n, 3);
  const BlockTridiag local = slice(global, part, 1);
  const Matrix x = make_rhs(n, m, 1);
  EXPECT_THROW((void)apply(local, x), fault::InvalidArgumentError);
  EXPECT_THROW((void)residual_fro(local, x, x), fault::InvalidArgumentError);
  EXPECT_THROW((void)relative_residual(local, x, x), fault::InvalidArgumentError);
  EXPECT_THROW((void)BandedLuFactorization::factor(local), fault::InvalidArgumentError);
  const std::string path = ::testing::TempDir() + "ardbt_slice.bt";
  std::filesystem::remove(path);
  EXPECT_THROW(save_block_tridiag(path, local), fault::InvalidArgumentError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_THROW(core::Session(core::Method::kArd, local, 3), fault::InvalidArgumentError);
  EXPECT_THROW(core::Session(core::Method::kPcr, std::make_shared<const BlockTridiag>(local), 3),
               fault::InvalidArgumentError);
  // A slice of a slice needs rows the first one holds.
  EXPECT_THROW((void)slice(local, part, 0), fault::InvalidArgumentError);
  EXPECT_TRUE(slice(local, part, 1).diag(part.begin(1)) == global.diag(part.begin(1)));
  EXPECT_LT(relative_residual(global, x, apply(global, x)), 1e-15);
}

TEST(Distributed, ScatterGatherRowsRoundTrip) {
  const index_t n = 11, m = 2, r = 3;
  const Matrix global = make_rhs(n, m, r);
  for (int p : {1, 3, 4}) {
    const RowPartition part(n, p);
    Matrix regathered;
    test::run_ranks(p, [&](mpsim::Comm& comm) {
      const Matrix* src = comm.rank() == 0 ? &global : nullptr;
      const Matrix local = scatter_rows(comm, src, m, part, 0);
      EXPECT_EQ(local.rows(), part.count(comm.rank()) * m);
      EXPECT_EQ(local.cols(), r);
      gather_rows(comm, local, comm.rank() == 0 ? &regathered : nullptr, m, part, 0);
    });
    EXPECT_TRUE(regathered == global);
  }
}

TEST(Distributed, ArdFullyDistributedMatchesSharedPath) {
  // End-to-end message-passing-only data flow: scatter system and RHS,
  // factor from local storage, solve on local slices, gather the result.
  const index_t n = 40, m = 4, r = 5;
  const BlockTridiag global = make_problem(ProblemKind::kPoisson2D, n, m);
  const Matrix b = make_rhs(n, m, r);
  const Matrix x_shared = [&] {
    Matrix x(b.rows(), b.cols());
    const RowPartition part(n, 4);
    test::run_ranks(4, [&](mpsim::Comm& comm) {
      const auto f = core::ArdFactorization::factor(comm, global, part);
      f.solve(comm, b, x);
    });
    return x;
  }();

  Matrix x_dist;
  const RowPartition part(n, 4);
  test::run_ranks(4, [&](mpsim::Comm& comm) {
    const bool is_root = comm.rank() == 0;
    const BlockTridiag local_sys = scatter(comm, is_root ? &global : nullptr, n, m, part, 0);
    Matrix local_x = scatter_rows(comm, is_root ? &b : nullptr, m, part, 0);
    const auto f = core::ArdFactorization::factor(comm, local_sys, part);
    f.solve_inplace(comm, local_x.view());
    gather_rows(comm, local_x, is_root ? &x_dist : nullptr, m, part, 0);
  });

  ASSERT_EQ(x_dist.rows(), x_shared.rows());
  for (index_t i = 0; i < x_dist.rows(); ++i) {
    for (index_t j = 0; j < r; ++j) {
      EXPECT_NEAR(x_dist(i, j), x_shared(i, j), 1e-13);
    }
  }
  EXPECT_LT(relative_residual(global, x_dist, b), 1e-12);
}

TEST(Distributed, LocalAssemblyWithoutAnyGlobalObject) {
  // The scalable path: every rank assembles only its rows (here: the
  // Poisson stencil), no rank ever holds the global matrix.
  const index_t n = 24, m = 3, r = 2;
  const RowPartition part(n, 3);
  const Matrix b = make_rhs(n, m, r);
  Matrix x(b.rows(), b.cols());
  test::run_ranks(3, [&](mpsim::Comm& comm) {
    BlockTridiag local(n, m, part, comm.rank());
    for (index_t i = local.lo(); i < local.hi(); ++i) {
      for (index_t rr = 0; rr < m; ++rr) {
        local.diag(i)(rr, rr) = 4.0;
        if (rr > 0) local.diag(i)(rr, rr - 1) = -1.0;
        if (rr + 1 < m) local.diag(i)(rr, rr + 1) = -1.0;
        if (i > 0) local.lower(i)(rr, rr) = -1.0;
        if (i + 1 < n) local.upper(i)(rr, rr) = -1.0;
      }
    }
    const auto f = core::ArdFactorization::factor(comm, local, part);
    f.solve(comm, b, x);
  });
  const BlockTridiag reference = make_problem(ProblemKind::kPoisson2D, n, m);
  EXPECT_LT(relative_residual(reference, x, b), 1e-12);
}

}  // namespace
}  // namespace ardbt::btds
