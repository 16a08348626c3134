#include "src/core/periodic.hpp"

#include <gtest/gtest.h>

#include "src/btds/generators.hpp"
#include "src/la/blas1.hpp"
#include "src/la/lu.hpp"
#include "src/la/random.hpp"
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

/// Dense assembly of the periodic operator for reference solves.
Matrix dense_periodic(const BlockTridiag& sys, const Matrix& bl, const Matrix& bu) {
  const index_t n = sys.num_blocks();
  const index_t m = sys.block_size();
  Matrix dense(n * m, n * m);
  for (index_t i = 0; i < n; ++i) {
    la::copy(sys.diag(i).view(), dense.block(i * m, i * m, m, m));
    if (i > 0) la::copy(sys.lower(i).view(), dense.block(i * m, (i - 1) * m, m, m));
    if (i + 1 < n) la::copy(sys.upper(i).view(), dense.block(i * m, (i + 1) * m, m, m));
  }
  // Corners (add, to keep the acyclic assembly untouched).
  for (index_t a = 0; a < m; ++a) {
    for (index_t b = 0; b < m; ++b) {
      dense(a, (n - 1) * m + b) += bl(a, b);
      dense((n - 1) * m + a, b) += bu(a, b);
    }
  }
  return dense;
}

/// Periodic Poisson corners: -I both ways (toroidal line Laplacian).
Matrix minus_identity(index_t m) {
  Matrix c = Matrix::identity(m);
  c.scale(-1.0);
  return c;
}

class PeriodicSweep : public ::testing::TestWithParam<std::tuple<index_t, index_t, int>> {};

TEST_P(PeriodicSweep, MatchesDenseSolve) {
  const auto [n, m, p] = GetParam();
  if (n < p) GTEST_SKIP();
  const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, n, m);
  const Matrix bl = minus_identity(m);
  const Matrix bu = minus_identity(m);
  const Matrix b = make_rhs(n, m, 3);

  Matrix x(b.rows(), b.cols());
  const btds::RowPartition part(n, p);
  test::run_ranks(p, [&](mpsim::Comm& comm) {
    const auto f = PeriodicArdFactorization::factor(comm, sys, bl, bu, part);
    f.solve(comm, b, x);
  });

  const Matrix dense = dense_periodic(sys, bl, bu);
  const la::LuFactors lu = la::lu_factor(dense.view());
  ASSERT_TRUE(lu.ok());
  const Matrix x_ref = la::lu_solve(lu, b.view());
  for (index_t i = 0; i < b.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) {
      EXPECT_NEAR(x(i, j), x_ref(i, j), 1e-9) << "N=" << n << " M=" << m << " P=" << p;
    }
  }
}

std::string periodic_name(const ::testing::TestParamInfo<PeriodicSweep::ParamType>& info) {
  return "N" + std::to_string(std::get<0>(info.param)) + "_M" +
         std::to_string(std::get<1>(info.param)) + "_P" + std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Shapes, PeriodicSweep,
                         ::testing::Combine(::testing::Values<index_t>(3, 8, 33),
                                            ::testing::Values<index_t>(1, 3),
                                            ::testing::Values(1, 2, 3, 4)),
                         periodic_name);

TEST(Periodic, ResidualAgainstPeriodicApply) {
  const index_t n = 40, m = 4;
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  la::Rng rng = la::make_rng(97);
  const Matrix bl = la::random_uniform(m, m, rng, -0.2, 0.2);
  const Matrix bu = la::random_uniform(m, m, rng, -0.2, 0.2);
  const Matrix b = make_rhs(n, m, 5);
  Matrix x(b.rows(), b.cols());
  const btds::RowPartition part(n, 4);
  test::run_ranks(4, [&](mpsim::Comm& comm) {
    const auto f = PeriodicArdFactorization::factor(comm, sys, bl, bu, part);
    f.solve(comm, b, x);
  });
  Matrix res = apply_periodic(sys, bl, bu, x);
  la::matrix_axpy(-1.0, b.view(), res.view());
  EXPECT_LT(la::norm_fro(res.view()), 1e-10 * la::norm_fro(b.view()));
}

TEST(Periodic, FactorReusedAcrossSolves) {
  const index_t n = 16, m = 2;
  const BlockTridiag sys = make_problem(ProblemKind::kToeplitz, n, m);
  const Matrix bl = minus_identity(m);
  const Matrix bu = minus_identity(m);
  const Matrix b1 = make_rhs(n, m, 1, 1);
  const Matrix b2 = make_rhs(n, m, 4, 2);
  Matrix x1(b1.rows(), 1);
  Matrix x2(b2.rows(), 4);
  const btds::RowPartition part(n, 2);
  test::run_ranks(2, [&](mpsim::Comm& comm) {
    const auto f = PeriodicArdFactorization::factor(comm, sys, bl, bu, part);
    f.solve(comm, b1, x1);
    f.solve(comm, b2, x2);
  });
  Matrix r1 = apply_periodic(sys, bl, bu, x1);
  la::matrix_axpy(-1.0, b1.view(), r1.view());
  Matrix r2 = apply_periodic(sys, bl, bu, x2);
  la::matrix_axpy(-1.0, b2.view(), r2.view());
  EXPECT_LT(la::norm_fro(r1.view()), 1e-11 * la::norm_fro(b1.view()));
  EXPECT_LT(la::norm_fro(r2.view()), 1e-11 * la::norm_fro(b2.view()));
}

TEST(Periodic, RejectsTinySystems) {
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 2, 2);
  const Matrix corner = Matrix::identity(2);
  const btds::RowPartition part(2, 1);
  test::run_ranks(1, [&](mpsim::Comm& comm) {
    EXPECT_THROW(PeriodicArdFactorization::factor(comm, sys, corner, corner, part),
                 fault::InvalidArgumentError);
  });
}

TEST(Periodic, FactorAndSolveRejectWrongShapes) {
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 8, 2);
  const btds::RowPartition part(8, 2);
  const Matrix corner = Matrix::identity(2);
  for (const Matrix& bad : {Matrix::identity(1), Matrix(2, 3), Matrix::identity(3)}) {
    EXPECT_THROW(test::run_ranks(2, [&](mpsim::Comm& comm) {
                   (void)PeriodicArdFactorization::factor(comm, sys, bad, corner, part);
                 }),
                 fault::ShapeMismatchError)
        << "lower corner " << bad.rows() << "x" << bad.cols();
    EXPECT_THROW(test::run_ranks(2, [&](mpsim::Comm& comm) {
                   (void)PeriodicArdFactorization::factor(comm, sys, corner, bad, part);
                 }),
                 fault::ShapeMismatchError)
        << "upper corner " << bad.rows() << "x" << bad.cols();
  }

  const Matrix b = make_rhs(8, 2, 3);
  const struct {
    Matrix b, x;
  } bad[] = {{Matrix(15, 3), Matrix(15, 3)}, {b, Matrix(14, 3)}, {b, Matrix(16, 2)}};
  for (const auto& c : bad) {
    Matrix x = c.x;
    EXPECT_THROW(test::run_ranks(2, [&](mpsim::Comm& comm) {
                   const auto f =
                       PeriodicArdFactorization::factor(comm, sys, corner, corner, part);
                   f.solve(comm, c.b, x);
                 }),
                 fault::ShapeMismatchError)
        << c.b.rows() << "x" << c.b.cols() << " into " << x.rows() << "x" << x.cols();
  }
}

TEST(Periodic, SingularCapacitanceThrowsTypedPivotError) {
  // Uncoupled unit rows closed into a ring by corners of -1: rows 0 and 2
  // read x_0 - x_2 and x_2 - x_0, so the periodic matrix is singular, and
  // so is K = I + [[0, -1], [-1, 0]], exactly (every value is +-1).
  BlockTridiag sys(3, 1);
  for (index_t i = 0; i < 3; ++i) sys.diag(i)(0, 0) = 1.0;
  const Matrix corner{{-1.0}};
  const btds::RowPartition part(3, 1);
  test::run_ranks(1, [&](mpsim::Comm& comm) {
    EXPECT_THROW(PeriodicArdFactorization::factor(comm, sys, corner, corner, part),
                 fault::SingularPivotError);
  });
}

TEST(Periodic, ZeroCornersReduceToAcyclicSolve) {
  const index_t n = 12, m = 3;
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const Matrix zero(m, m);
  const Matrix b = make_rhs(n, m, 2);
  Matrix x_per(b.rows(), b.cols());
  Matrix x_acyclic(b.rows(), b.cols());
  const btds::RowPartition part(n, 3);
  test::run_ranks(3, [&](mpsim::Comm& comm) {
    const auto fp = PeriodicArdFactorization::factor(comm, sys, zero, zero, part);
    fp.solve(comm, b, x_per);
    const auto fa = ArdFactorization::factor(comm, sys, part);
    fa.solve(comm, b, x_acyclic);
  });
  for (index_t i = 0; i < b.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) EXPECT_NEAR(x_per(i, j), x_acyclic(i, j), 1e-12);
  }
}

}  // namespace
}  // namespace ardbt::core
