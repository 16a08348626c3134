#include "src/btds/cyclic_reduction.hpp"

#include <gtest/gtest.h>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/btds/thomas.hpp"

namespace ardbt::btds {
namespace {

TEST(CyclicReduction, MatchesThomasAcrossSizes) {
  // Sizes chosen to hit every recursion edge: 1, 2, 3, powers of two,
  // one-off-powers, and a generic composite.
  for (index_t n : {1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33, 50}) {
    const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, n, 3);
    const Matrix b = make_rhs(n, 3, 2);
    const Matrix x_bcr = cyclic_reduction_solve(t, b);
    const Matrix x_ref = thomas_solve(t, b);
    for (index_t i = 0; i < x_bcr.rows(); ++i) {
      for (index_t j = 0; j < x_bcr.cols(); ++j) {
        EXPECT_NEAR(x_bcr(i, j), x_ref(i, j), 1e-9) << "N=" << n;
      }
    }
  }
}

TEST(CyclicReduction, SmallResidualOnAllKinds) {
  for (ProblemKind kind : kAllProblemKinds) {
    const BlockTridiag t = make_problem(kind, 24, 4);
    const Matrix b = make_rhs(24, 4, 3);
    const Matrix x = cyclic_reduction_solve(t, b);
    const double tol = kind == ProblemKind::kIllConditioned ? 1e-7 : 1e-10;
    EXPECT_LT(relative_residual(t, x, b), tol) << to_string(kind);
  }
}

TEST(CyclicReduction, ScalarBlocksLargeN) {
  const BlockTridiag t = make_problem(ProblemKind::kPoisson2D, 500, 1);
  const Matrix b = make_rhs(500, 1, 1);
  const Matrix x = cyclic_reduction_solve(t, b);
  EXPECT_LT(relative_residual(t, x, b), 1e-12);
}

TEST(CyclicReduction, ThrowsOnSingularDiagonal) {
  BlockTridiag t(2, 1);
  t.diag(0)(0, 0) = 0.0;
  t.diag(1)(0, 0) = 1.0;
  t.upper(0)(0, 0) = 1.0;
  t.lower(1)(0, 0) = 1.0;
  const Matrix b = make_rhs(2, 1, 1);
  EXPECT_THROW(cyclic_reduction_solve(t, b), std::runtime_error);
}

TEST(CyclicReduction, RejectsAWrongRowCount) {
  const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, 8, 3);
  for (const index_t rows : {index_t{23}, index_t{25}}) {
    EXPECT_THROW(cyclic_reduction_solve(t, Matrix(rows, 2)), fault::ShapeMismatchError)
        << "rows=" << rows;
  }
}

TEST(CyclicReduction, FlopEstimateScalesLinearlyInN) {
  const double f1 = cyclic_reduction_flops(100, 4, 8);
  const double f2 = cyclic_reduction_flops(200, 4, 8);
  EXPECT_NEAR(f2 / f1, 2.0, 1e-9);
}

}  // namespace
}  // namespace ardbt::btds
