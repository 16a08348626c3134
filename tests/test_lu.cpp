#include "src/la/lu.hpp"

#include <gtest/gtest.h>

#include "src/fault/status.hpp"

#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/random.hpp"

namespace ardbt::la {
namespace {

Matrix residual_of_solve(const Matrix& a, const Matrix& x, const Matrix& b) {
  Matrix r = to_matrix(b.view());
  gemm(-1.0, a.view(), x.view(), 1.0, r.view());
  return r;
}

TEST(Lu, SolvesKnown2x2) {
  const Matrix a{{4.0, 3.0}, {6.0, 3.0}};
  const Matrix b{{10.0}, {12.0}};
  const LuFactors f = lu_factor(a.view());
  ASSERT_TRUE(f.ok());
  const Matrix x = lu_solve(f, b.view());
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
}

TEST(Lu, RandomRoundTripMultiRhs) {
  Rng rng = make_rng(3);
  for (index_t n : {1, 2, 3, 7, 16, 33}) {
    const Matrix a = random_diag_dominant(n, rng);
    const Matrix b = random_uniform(n, 5, rng);
    const LuFactors f = lu_factor(a.view());
    ASSERT_TRUE(f.ok()) << "n=" << n;
    const Matrix x = lu_solve(f, b.view());
    EXPECT_LT(norm_fro(residual_of_solve(a, x, b).view()), 1e-10 * norm_fro(b.view()))
        << "n=" << n;
  }
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const LuFactors f = lu_factor(a.view());
  ASSERT_TRUE(f.ok());
  const Matrix b{{2.0}, {3.0}};
  const Matrix x = lu_solve(f, b.view());
  EXPECT_NEAR(x(0, 0), 3.0, 1e-14);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-14);
}

TEST(Lu, SingularMatrixReportsInfo) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  const LuFactors f = lu_factor(a.view());
  EXPECT_FALSE(f.ok());
  EXPECT_GT(f.info, 0);
}

TEST(Lu, InfoIdentifiesFirstZeroPivotColumn) {
  // Rank-1 3x3: elimination zeroes out from column 1 on.
  const Matrix a{{1.0, 2.0, 3.0}, {2.0, 4.0, 6.0}, {3.0, 6.0, 9.0}};
  const LuFactors f = lu_factor(a.view());
  EXPECT_EQ(f.info, 2);  // 1-based column of the first zero pivot
}

/// right_divide runs the transposed solve A^T X^T = B^T: it must agree
/// with an ordinary solve against a separately factored A^T.
TEST(Lu, RightDivideMatchesSolveWithExplicitTranspose) {
  Rng rng = make_rng(11);
  for (index_t n : {1, 2, 5, 12, 31}) {
    const Matrix a = random_diag_dominant(n, rng);
    const Matrix b = random_uniform(n, 3, rng);
    const LuFactors f = lu_factor(a.view());
    ASSERT_TRUE(f.ok());

    const Matrix bt = transposed(b.view());
    const Matrix xt = right_divide(bt.view(), f);
    Matrix x = transposed(xt.view());

    // Reference: factor A^T separately.
    const Matrix at = transposed(a.view());
    const LuFactors ft = lu_factor(at.view());
    const Matrix x_ref = lu_solve(ft, b.view());
    matrix_axpy(-1.0, x_ref.view(), x.view());
    EXPECT_LT(norm_fro(x.view()), 1e-10 * norm_fro(x_ref.view()) + 1e-13) << "n=" << n;
  }
}

TEST(Lu, RightDivideSolvesXAEqualsB) {
  Rng rng = make_rng(17);
  for (index_t rows : {1, 3, 8}) {
    const Matrix a = random_diag_dominant(6, rng);
    const Matrix b = random_uniform(rows, 6, rng);
    const LuFactors f = lu_factor(a.view());
    const Matrix x = right_divide(b.view(), f);
    // Check X A == B.
    Matrix r = matmul(x.view(), a.view());
    matrix_axpy(-1.0, b.view(), r.view());
    EXPECT_LT(norm_fro(r.view()), 1e-10 * norm_fro(b.view()));
  }
}

TEST(Lu, InverseTimesMatrixIsIdentity) {
  Rng rng = make_rng(23);
  const Matrix a = random_diag_dominant(9, rng);
  const Matrix inv = inverse(a.view());
  Matrix prod = matmul(inv.view(), a.view());
  matrix_axpy(-1.0, Matrix::identity(9).view(), prod.view());
  EXPECT_LT(norm_fro(prod.view()), 1e-11);
}

// Regression: these checks used to be asserts, absent from the default
// -DNDEBUG build — they must throw in release mode.
TEST(Lu, MismatchedShapesThrow) {
  EXPECT_THROW(lu_factor(Matrix(3, 4).view()), fault::ShapeMismatchError);

  const Matrix a{{4.0, 3.0}, {6.0, 3.0}};
  const LuFactors f = lu_factor(a.view());
  Matrix b(3, 1);  // rows 3 != 2
  EXPECT_THROW(lu_solve_inplace(f, b.view()), fault::ShapeMismatchError);
  EXPECT_THROW(lu_solve(f, b.view()), fault::ShapeMismatchError);
  Matrix c(1, 3);  // right_divide: cols 3 != 2
  EXPECT_THROW(right_divide(c.view(), f), fault::ShapeMismatchError);
}

TEST(Lu, SolveSpanOverloadMatchesMatrixOverload) {
  Rng rng = make_rng(29);
  const Matrix a = random_diag_dominant(7, rng);
  const Matrix b = random_uniform(7, 1, rng);
  const LuFactors f = lu_factor(a.view());
  const Matrix x_mat = lu_solve(f, b.view());

  std::vector<double> v(7);
  for (index_t i = 0; i < 7; ++i) v[static_cast<std::size_t>(i)] = b(i, 0);
  lu_solve_inplace(f, std::span<double>(v));
  for (index_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(v[static_cast<std::size_t>(i)], x_mat(i, 0), 1e-12);
  }
}

}  // namespace
}  // namespace ardbt::la
