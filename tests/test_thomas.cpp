#include "src/btds/thomas.hpp"

#include <gtest/gtest.h>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"

namespace ardbt::btds {
namespace {

TEST(Thomas, MatchesDenseLuOnSmallSystem) {
  const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, 5, 3);
  const Matrix b = make_rhs(5, 3, 2);
  const Matrix x = thomas_solve(t, b);

  // Dense reference.
  Matrix dense(t.dim(), t.dim());
  for (index_t i = 0; i < 5; ++i) {
    la::copy(t.diag(i).view(), dense.block(i * 3, i * 3, 3, 3));
    if (i > 0) la::copy(t.lower(i).view(), dense.block(i * 3, (i - 1) * 3, 3, 3));
    if (i + 1 < 5) la::copy(t.upper(i).view(), dense.block(i * 3, (i + 1) * 3, 3, 3));
  }
  const la::LuFactors f = la::lu_factor(dense.view());
  ASSERT_TRUE(f.ok());
  const Matrix x_ref = la::lu_solve(f, b.view());
  for (index_t i = 0; i < x.rows(); ++i) {
    for (index_t j = 0; j < x.cols(); ++j) EXPECT_NEAR(x(i, j), x_ref(i, j), 1e-10);
  }
}

TEST(Thomas, SmallResidualAcrossKindsAndSizes) {
  for (ProblemKind kind : kAllProblemKinds) {
    for (index_t n : {1, 2, 3, 17, 64}) {
      for (index_t m : {1, 4}) {
        const BlockTridiag t = make_problem(kind, n, m);
        const Matrix b = make_rhs(n, m, 3);
        const Matrix x = thomas_solve(t, b);
        const double tol = kind == ProblemKind::kIllConditioned ? 1e-8 : 1e-11;
        EXPECT_LT(relative_residual(t, x, b), tol)
            << to_string(kind) << " N=" << n << " M=" << m;
      }
    }
  }
}

TEST(Thomas, FactorOnceSolvesManyRhs) {
  const BlockTridiag t = make_problem(ProblemKind::kPoisson2D, 12, 2);
  const ThomasFactorization f = ThomasFactorization::factor(t);
  EXPECT_EQ(f.num_blocks(), 12);
  EXPECT_EQ(f.block_size(), 2);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Matrix b = make_rhs(12, 2, 4, seed);
    const Matrix x = f.solve(b);
    EXPECT_LT(relative_residual(t, x, b), 1e-12);
  }
}

TEST(Thomas, SingleBlockRowIsPlainLuSolve) {
  BlockTridiag t(1, 2);
  t.diag(0) = Matrix{{2.0, 0.0}, {0.0, 4.0}};
  Matrix b(2, 1);
  b(0, 0) = 2.0;
  b(1, 0) = 8.0;
  const Matrix x = thomas_solve(t, b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-14);
}

TEST(Thomas, ThrowsOnSingularPivot) {
  BlockTridiag t(2, 1);
  t.diag(0)(0, 0) = 0.0;  // singular first pivot
  t.diag(1)(0, 0) = 1.0;
  t.upper(0)(0, 0) = 1.0;
  t.lower(1)(0, 0) = 1.0;
  EXPECT_THROW(ThomasFactorization::factor(t), std::runtime_error);
}

TEST(Thomas, CornerSpikesMatchUnitLoadSolves) {
  // corner_spikes skips the forward sweep of the last-row unit load; the
  // result must still be exactly what solve_inplace gives on [E_first
  // E_last], on the fixed-M path (M = 8) and the generic one (M = 3), with
  // LU and Cholesky pivots.
  for (const PivotKind pivot : {PivotKind::kLu, PivotKind::kCholesky}) {
    for (const index_t m : {index_t{3}, index_t{8}}) {
      for (const index_t n : {index_t{1}, index_t{2}, index_t{9}}) {
        const BlockTridiag t = make_problem(
            pivot == PivotKind::kLu ? ProblemKind::kDiagDominant : ProblemKind::kPoisson2D, n, m);
        const ThomasFactorization f = ThomasFactorization::factor(t, pivot);
        Matrix ref(n * m, 2 * m);
        for (index_t i = 0; i < m; ++i) {
          ref(i, i) = 1.0;
          ref((n - 1) * m + i, m + i) = 1.0;
        }
        f.solve_inplace(ref.view());
        const Matrix s = f.corner_spikes();
        ASSERT_EQ(s.rows(), ref.rows());
        ASSERT_EQ(s.cols(), ref.cols());
        for (index_t i = 0; i < s.rows(); ++i) {
          for (index_t j = 0; j < s.cols(); ++j) {
            ASSERT_EQ(s(i, j), ref(i, j)) << "pivot=" << static_cast<int>(pivot) << " M=" << m
                                          << " N=" << n << " at (" << i << "," << j << ")";
          }
        }
      }
    }
  }
  EXPECT_EQ(ThomasFactorization::spike_flops(10, 4), 8.0 * 10 * 64);
}

TEST(Thomas, FlopFormulasScale) {
  EXPECT_GT(ThomasFactorization::factor_flops(10, 4), 0.0);
  EXPECT_NEAR(ThomasFactorization::factor_flops(20, 4) / ThomasFactorization::factor_flops(10, 4),
              2.0, 1e-9);
  EXPECT_NEAR(ThomasFactorization::solve_flops(10, 4, 8) / ThomasFactorization::solve_flops(10, 4, 4),
              2.0, 1e-9);
}

TEST(Thomas, StorageBytesPositive) {
  const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, 6, 3);
  const ThomasFactorization f = ThomasFactorization::factor(t);
  EXPECT_GT(f.storage_bytes(), 0u);
}

}  // namespace
}  // namespace ardbt::btds
