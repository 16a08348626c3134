#include "src/la/cholesky.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/lu.hpp"
#include "src/la/random.hpp"

namespace ardbt::la {
namespace {

/// Random SPD matrix: A = B B^T + n I.
Matrix random_spd(index_t n, Rng& rng) {
  const Matrix b = random_uniform(n, n, rng);
  const Matrix bt = transposed(b.view());
  Matrix a = matmul(b.view(), bt.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

TEST(Cholesky, ReconstructsMatrix) {
  Rng rng = make_rng(61);
  for (index_t n : {1, 2, 6, 15}) {
    const Matrix a = random_spd(n, rng);
    Matrix l = a;
    ASSERT_TRUE(cholesky_factor_inplace(l.view()).ok()) << n;
    // The kernel leaves the strict upper triangle as it found it.
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
    }
    const Matrix lt = transposed(l.view());
    Matrix llt = matmul(l.view(), lt.view());
    matrix_axpy(-1.0, a.view(), llt.view());
    EXPECT_LT(norm_fro(llt.view()), 1e-11 * norm_fro(a.view())) << n;
  }
}

TEST(Cholesky, SolveMatchesLu) {
  Rng rng = make_rng(67);
  const Matrix a = random_spd(8, rng);
  const Matrix b = random_uniform(8, 4, rng);
  Matrix l = a;
  ASSERT_TRUE(cholesky_factor_inplace(l.view()).ok());
  Matrix x_chol = b;
  cholesky_solve_inplace(l.view(), x_chol.view());
  const LuFactors fl = lu_factor(a.view());
  const Matrix x_lu = lu_solve(fl, b.view());
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j < 4; ++j) EXPECT_NEAR(x_chol(i, j), x_lu(i, j), 1e-11);
  }
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  const CholeskyInPlaceInfo d = cholesky_factor_inplace(a.view());
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.info, 2);
}

TEST(Cholesky, RejectsZeroMatrix) {
  Matrix a(3, 3);
  const CholeskyInPlaceInfo d = cholesky_factor_inplace(a.view());
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.info, 1);
}

/// Only the lower triangle is read, and the strict upper triangle is left
/// untouched: a poisoned upper triangle changes no bit of L and survives.
TEST(Cholesky, OnlyReadsLowerTriangle) {
  Rng rng = make_rng(71);
  for (index_t n : {1, 3, 8, 13}) {
    Matrix a = random_spd(n, rng);
    Matrix garbled = a;
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = i + 1; j < n; ++j) garbled(i, j) = 1e9;  // poison upper
    }
    const CholeskyInPlaceInfo da = cholesky_factor_inplace(a.view());
    const CholeskyInPlaceInfo dg = cholesky_factor_inplace(garbled.view());
    ASSERT_TRUE(da.ok() && dg.ok()) << n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(da.min_pivot_abs),
              std::bit_cast<std::uint64_t>(dg.min_pivot_abs));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(da.max_pivot_abs),
              std::bit_cast<std::uint64_t>(dg.max_pivot_abs));
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a(i, j)),
                  std::bit_cast<std::uint64_t>(garbled(i, j)));
      }
      for (index_t j = i + 1; j < n; ++j) EXPECT_EQ(garbled(i, j), 1e9) << n;
    }
  }
}

}  // namespace
}  // namespace ardbt::la
