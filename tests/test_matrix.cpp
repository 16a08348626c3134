#include "src/la/matrix.hpp"

#include <gtest/gtest.h>

#include "src/fault/status.hpp"

namespace ardbt::la {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  const Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructionZeroInitializes) {
  const Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(Matrix, InitializerList) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(2, 0), 5.0);
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) EXPECT_EQ(eye(i, j), i == j ? 1.0 : 0.0);
  }
}

TEST(Matrix, ElementWrite) {
  Matrix m(2, 2);
  m(1, 0) = 7.5;
  EXPECT_EQ(m(1, 0), 7.5);
}

TEST(Matrix, FillScaleResize) {
  Matrix m(2, 3);
  m.fill(2.0);
  m.scale(-1.5);
  EXPECT_EQ(m(1, 2), -3.0);
  m.resize(4, 1);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 1);
  EXPECT_EQ(m(3, 0), 0.0);
}

TEST(Matrix, Equality) {
  const Matrix a{{1.0, 2.0}};
  const Matrix b{{1.0, 2.0}};
  const Matrix c{{1.0, 3.0}};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(Matrix, ViewReadsAndWritesThroughToStorage) {
  Matrix m(3, 3);
  MatrixView v = m.view();
  v(1, 1) = 9.0;
  EXPECT_EQ(m(1, 1), 9.0);
  const ConstMatrixView cv = m.view();
  EXPECT_EQ(cv(1, 1), 9.0);
}

TEST(Matrix, BlockViewHasCorrectStride) {
  Matrix m(4, 4);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) m(i, j) = static_cast<double>(10 * i + j);
  }
  const ConstMatrixView blk = m.block(1, 2, 2, 2);
  EXPECT_EQ(blk.rows(), 2);
  EXPECT_EQ(blk.cols(), 2);
  EXPECT_EQ(blk.ld(), 4);
  EXPECT_FALSE(blk.contiguous());
  EXPECT_EQ(blk(0, 0), 12.0);
  EXPECT_EQ(blk(1, 1), 23.0);
}

TEST(Matrix, CopyHandlesStridedViews) {
  Matrix src(4, 4);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) src(i, j) = static_cast<double>(i + j);
  }
  Matrix dst(2, 2);
  copy(src.block(2, 1, 2, 2), dst.view());
  EXPECT_EQ(dst(0, 0), 3.0);
  EXPECT_EQ(dst(1, 1), 5.0);
}

TEST(Matrix, CopyRejectsMismatchedShapes) {
  // Each mismatch would read or write past one of the views; the check
  // throws before any element moves.
  Matrix src(3, 3);
  Matrix dst(2, 2);
  EXPECT_THROW(copy(src.view(), dst.view()), fault::ShapeMismatchError);
  EXPECT_THROW(copy(src.block(0, 0, 2, 3), dst.view()), fault::ShapeMismatchError);
  EXPECT_THROW(copy(src.block(0, 0, 3, 2), dst.view()), fault::ShapeMismatchError);
  EXPECT_THROW(copy(dst.view(), src.view()), fault::ShapeMismatchError);
  EXPECT_EQ(dst(0, 0), 0.0);
}

TEST(Matrix, ToMatrixDeepCopies) {
  Matrix src{{1.0, 2.0}, {3.0, 4.0}};
  Matrix copy_m = to_matrix(src.block(0, 0, 2, 1));
  src(0, 0) = 99.0;
  EXPECT_EQ(copy_m(0, 0), 1.0);
  EXPECT_EQ(copy_m.cols(), 1);
}

TEST(Matrix, Transposed) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = transposed(a.view());
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t(0, 0), 1.0);
}

TEST(Matrix, RowSpan) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  auto row = m.view().row(1);
  EXPECT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], 3.0);
  row[1] = 8.0;
  EXPECT_EQ(m(1, 1), 8.0);
}

}  // namespace
}  // namespace ardbt::la
