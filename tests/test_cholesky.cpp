#include "src/la/cholesky.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>

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
    const CholeskyFactors f = cholesky_factor(a.view());
    ASSERT_TRUE(f.ok()) << n;
    const Matrix lt = transposed(f.l.view());
    Matrix llt = matmul(f.l.view(), lt.view());
    matrix_axpy(-1.0, a.view(), llt.view());
    EXPECT_LT(norm_fro(llt.view()), 1e-11 * norm_fro(a.view())) << n;
  }
}

TEST(Cholesky, SolveMatchesLu) {
  Rng rng = make_rng(67);
  const Matrix a = random_spd(8, rng);
  const Matrix b = random_uniform(8, 4, rng);
  const CholeskyFactors fc = cholesky_factor(a.view());
  ASSERT_TRUE(fc.ok());
  const Matrix x_chol = cholesky_solve(fc, b.view());
  const LuFactors fl = lu_factor(a.view());
  const Matrix x_lu = lu_solve(fl, b.view());
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j < 4; ++j) EXPECT_NEAR(x_chol(i, j), x_lu(i, j), 1e-11);
  }
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  const CholeskyFactors f = cholesky_factor(a.view());
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.info, 2);
}

TEST(Cholesky, RejectsZeroMatrix) {
  const Matrix a(3, 3);
  const CholeskyFactors f = cholesky_factor(a.view());
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.info, 1);
}

TEST(Cholesky, OnlyReadsLowerTriangle) {
  Rng rng = make_rng(71);
  Matrix a = random_spd(5, rng);
  Matrix garbled = a;
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = i + 1; j < 5; ++j) garbled(i, j) = 1e9;  // poison upper
  }
  const CholeskyFactors fa = cholesky_factor(a.view());
  const CholeskyFactors fg = cholesky_factor(garbled.view());
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fg.ok());
  EXPECT_TRUE(fa.l == fg.l);
}

/// cholesky_factor / cholesky_solve_inplace wrap the in-place view core:
/// the same bits in the lower triangle and the solution, and the wrapper
/// zeroes the strict upper triangle the core leaves untouched.
TEST(Cholesky, InPlaceCoreMatchesWrapperBits) {
  Rng rng = make_rng(73);
  for (index_t n : {1, 3, 8, 13}) {
    const Matrix a = random_spd(n, rng);
    const Matrix b = random_uniform(n, 5, rng);
    const CholeskyFactors f = cholesky_factor(a.view());
    Matrix l = a;
    const CholeskyInPlaceInfo d = cholesky_factor_inplace(l.view());
    ASSERT_TRUE(f.ok() && d.ok()) << n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f.min_pivot_abs),
              std::bit_cast<std::uint64_t>(d.min_pivot_abs));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f.max_pivot_abs),
              std::bit_cast<std::uint64_t>(d.max_pivot_abs));
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        if (j <= i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(f.l(i, j)), std::bit_cast<std::uint64_t>(l(i, j)));
        } else {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(f.l(i, j)), 0u) << n << " " << i << " " << j;
          EXPECT_EQ(l(i, j), a(i, j));  // the core leaves the upper triangle alone
        }
      }
    }
    Matrix x_core = b;
    cholesky_solve_inplace(l.view(), x_core.view());
    Matrix x_wrap = b;
    cholesky_solve_inplace(f, x_wrap.view());
    EXPECT_EQ(std::memcmp(x_core.view().data(), x_wrap.view().data(),
                          static_cast<std::size_t>(n * 5) * sizeof(double)),
              0)
        << n;
  }
}

TEST(Cholesky, FlopFormulaIsHalfOfLuOrder) {
  EXPECT_LT(cholesky_factor_flops(32), lu_factor_flops(32));
  EXPECT_NEAR(cholesky_factor_flops(32) / lu_factor_flops(32), 0.5, 1e-9);
}

}  // namespace
}  // namespace ardbt::la
