#include "src/la/blas1.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/la/matrix.hpp"

namespace ardbt::la {
namespace {

TEST(Blas1, Axpy) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{10.0, 20.0, 30.0};
  axpy(2.0, x, y);
  EXPECT_EQ(y[0], 12.0);
  EXPECT_EQ(y[2], 36.0);
}

TEST(Blas1, Scal) {
  std::vector<double> x{1.0, -2.0};
  scal(-3.0, x);
  EXPECT_EQ(x[0], -3.0);
  EXPECT_EQ(x[1], 6.0);
}

TEST(Blas1, NormFroAvoidsOverflowAndHandlesZero) {
  const Matrix big{{1e200, 1e200}};
  EXPECT_NEAR(norm_fro(big.view()), std::sqrt(2.0) * 1e200, 1e186);
  EXPECT_TRUE(std::isfinite(norm_fro(big.view())));
  EXPECT_EQ(norm_fro(Matrix(2, 2).view()), 0.0);
}

TEST(Blas1, Amax) {
  const std::vector<double> x{-7.0, 3.0, 5.0};
  EXPECT_EQ(amax(x), 7.0);
  EXPECT_EQ(amax(std::span<const double>()), 0.0);
}

TEST(Blas1, MatrixNorms) {
  const Matrix a{{1.0, -2.0}, {-3.0, 4.0}};
  EXPECT_NEAR(norm_fro(a.view()), std::sqrt(30.0), 1e-14);
  EXPECT_EQ(norm_inf(a.view()), 7.0);   // max row sum |−3|+|4|
  EXPECT_EQ(norm_max(a.view()), 4.0);
}

TEST(Blas1, NormsOfStridedView) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(0, 1) = -5.0;
  a(1, 0) = 2.0;
  a(1, 1) = 3.0;
  const ConstMatrixView blk = a.block(0, 0, 2, 2);
  EXPECT_EQ(norm_inf(blk), 6.0);
  EXPECT_EQ(norm_max(blk), 5.0);
}

TEST(Blas1, MatrixAxpyAndScal) {
  const Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  Matrix b{{1.0, 2.0}, {3.0, 4.0}};
  matrix_axpy(2.0, a.view(), b.view());
  EXPECT_EQ(b(0, 0), 3.0);
  EXPECT_EQ(b(1, 1), 6.0);
  matrix_scal(0.5, b.view());
  EXPECT_EQ(b(0, 0), 1.5);
}

}  // namespace
}  // namespace ardbt::la
