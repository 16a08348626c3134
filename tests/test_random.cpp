#include "src/la/random.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/lu.hpp"

namespace ardbt::la {
namespace {

TEST(Random, DeterministicForSameSeedAndStream) {
  Rng a = make_rng(42, 3);
  Rng b = make_rng(42, 3);
  const Matrix ma = random_uniform(4, 4, a);
  const Matrix mb = random_uniform(4, 4, b);
  EXPECT_TRUE(ma == mb);
}

TEST(Random, DifferentStreamsDiffer) {
  Rng a = make_rng(42, 0);
  Rng b = make_rng(42, 1);
  const Matrix ma = random_uniform(4, 4, a);
  const Matrix mb = random_uniform(4, 4, b);
  EXPECT_FALSE(ma == mb);
}

TEST(Random, UniformRespectsBounds) {
  Rng rng = make_rng(7);
  const Matrix m = random_uniform(20, 20, rng, -0.25, 0.75);
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t j = 0; j < m.cols(); ++j) {
      EXPECT_GE(m(i, j), -0.25);
      EXPECT_LT(m(i, j), 0.75);
    }
  }
}

TEST(Random, DiagDominantIsStrictlyDominant) {
  Rng rng = make_rng(11);
  const Matrix m = random_diag_dominant(10, rng, 1.5);
  for (index_t i = 0; i < 10; ++i) {
    double off = 0.0;
    for (index_t j = 0; j < 10; ++j) {
      if (j != i) off += std::abs(m(i, j));
    }
    EXPECT_GT(std::abs(m(i, i)), off) << "row " << i;
  }
}

TEST(Random, OrthogonalishHasUnitColumnsAndIsWellConditioned) {
  Rng rng = make_rng(13);
  const Matrix q = random_orthogonalish(8, rng);
  // Q^T Q ~ I.
  const Matrix qt = transposed(q.view());
  Matrix prod = matmul(qt.view(), q.view());
  matrix_axpy(-1.0, Matrix::identity(8).view(), prod.view());
  EXPECT_LT(norm_fro(prod.view()), 1e-10);
  EXPECT_LT(norm_inf(q.view()) * norm_inf(inverse(q.view()).view()), 50.0);
}

}  // namespace
}  // namespace ardbt::la
