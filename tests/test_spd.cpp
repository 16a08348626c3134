// The SPD (Cholesky-pivot) fast path of block Thomas and ARD.

#include <gtest/gtest.h>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/ard.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt {
namespace {

using btds::BlockTridiag;
using btds::make_rhs;
using btds::PivotKind;
using la::index_t;
using la::Matrix;

/// The Poisson line operator is SPD (symmetric, A_{i+1} = C_i^T = -I,
/// strictly dominant diagonal).
BlockTridiag spd_problem(index_t n, index_t m) {
  return btds::make_problem(btds::ProblemKind::kPoisson2D, n, m);
}

TEST(SpdPivot, ThomasCholeskyMatchesLu) {
  const BlockTridiag sys = spd_problem(20, 4);
  const Matrix b = make_rhs(20, 4, 3);
  const Matrix x_lu = btds::ThomasFactorization::factor(sys, PivotKind::kLu).solve(b);
  const Matrix x_ch = btds::ThomasFactorization::factor(sys, PivotKind::kCholesky).solve(b);
  for (index_t i = 0; i < b.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) EXPECT_NEAR(x_ch(i, j), x_lu(i, j), 1e-11);
  }
}

TEST(SpdPivot, ThomasCholeskyRejectsNonSpd) {
  // Convection (drift != 0) breaks symmetry; the pivots stay invertible
  // (dominant) but are not SPD... the first asymmetric pivot may still be
  // positive, so use an indefinite diagonal instead.
  BlockTridiag sys(2, 2);
  sys.diag(0) = Matrix{{1.0, 2.0}, {2.0, 1.0}};  // indefinite
  sys.diag(1) = Matrix::identity(2);
  sys.upper(0) = Matrix::identity(2);
  sys.lower(1) = Matrix::identity(2);
  EXPECT_THROW(btds::ThomasFactorization::factor(sys, PivotKind::kCholesky), std::runtime_error);
}

TEST(SpdPivot, ArdWithCholeskyPivots) {
  const BlockTridiag sys = spd_problem(48, 4);
  const Matrix b = make_rhs(48, 4, 4);
  Matrix x(b.rows(), b.cols());
  const btds::RowPartition part(48, 4);
  core::ArdOptions opts;
  opts.pivot = PivotKind::kCholesky;
  test::run_ranks(4, [&](mpsim::Comm& comm) {
    const auto f = core::ArdFactorization::factor(comm, sys, part, opts);
    f.solve(comm, b, x);
  });
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12);
}

TEST(SpdPivot, ArdCholeskyMatchesLuBitForBitInShape) {
  const BlockTridiag sys = spd_problem(24, 3);
  const Matrix b = make_rhs(24, 3, 2);
  Matrix x_lu(b.rows(), b.cols());
  Matrix x_ch(b.rows(), b.cols());
  const btds::RowPartition part(24, 3);
  test::run_ranks(3, [&](mpsim::Comm& comm) {
    const auto f1 = core::ArdFactorization::factor(comm, sys, part);
    f1.solve(comm, b, x_lu);
    core::ArdOptions opts;
    opts.pivot = PivotKind::kCholesky;
    const auto f2 = core::ArdFactorization::factor(comm, sys, part, opts);
    f2.solve(comm, b, x_ch);
  });
  for (index_t i = 0; i < b.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) EXPECT_NEAR(x_ch(i, j), x_lu(i, j), 1e-10);
  }
}

TEST(SpdPivot, UpdateKeepsPivotKind) {
  BlockTridiag sys = spd_problem(16, 2);
  const Matrix b = make_rhs(16, 2, 1);
  Matrix x(b.rows(), b.cols());
  const btds::RowPartition part(16, 2);
  core::ArdOptions opts;
  opts.pivot = PivotKind::kCholesky;
  test::run_ranks(2, [&](mpsim::Comm& comm) {
    auto f = core::ArdFactorization::factor(comm, sys, part, opts);
    mpsim::barrier(comm);
    if (comm.rank() == 0) {
      for (index_t i = 0; i < 16; ++i) {
        for (index_t d = 0; d < 2; ++d) sys.diag(i)(d, d) += 1.0;  // stays SPD
      }
    }
    mpsim::barrier(comm);
    f.update(comm, sys, /*rows_changed=*/true);
    f.solve(comm, b, x);
  });
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12);
}

}  // namespace
}  // namespace ardbt
