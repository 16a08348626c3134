#include "src/btds/block_tridiag.hpp"

#include <gtest/gtest.h>

#include "src/btds/generators.hpp"
#include "src/btds/partition.hpp"
#include "src/btds/spmv.hpp"
#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/lu.hpp"

namespace ardbt::btds {
namespace {

TEST(BlockTridiag, ShapeAccessors) {
  const BlockTridiag t(5, 3);
  EXPECT_EQ(t.num_blocks(), 5);
  EXPECT_EQ(t.block_size(), 3);
  EXPECT_EQ(t.dim(), 15);
}

TEST(BlockTridiag, BlockRowView) {
  Matrix x(6, 2);
  x(2, 1) = 5.0;
  const la::ConstMatrixView row1 = block_row(std::as_const(x), 1, 2);
  EXPECT_EQ(row1(0, 1), 5.0);
  la::MatrixView row0 = block_row(x, 0, 2);
  row0(0, 0) = -1.0;
  EXPECT_EQ(x(0, 0), -1.0);
}

/// Assemble the dense N*M x N*M matrix for cross-checking.
Matrix to_dense(const BlockTridiag& t) {
  const index_t n = t.num_blocks();
  const index_t m = t.block_size();
  Matrix dense(n * m, n * m);
  for (index_t i = 0; i < n; ++i) {
    la::copy(t.diag(i).view(), dense.block(i * m, i * m, m, m));
    if (i > 0) la::copy(t.lower(i).view(), dense.block(i * m, (i - 1) * m, m, m));
    if (i + 1 < n) la::copy(t.upper(i).view(), dense.block(i * m, (i + 1) * m, m, m));
  }
  return dense;
}

TEST(Spmv, ApplyMatchesDense) {
  for (ProblemKind kind : kAllProblemKinds) {
    const BlockTridiag t = make_problem(kind, 6, 3);
    const Matrix x = make_rhs(6, 3, 2);
    const Matrix b_block = apply(t, x);
    const Matrix dense = to_dense(t);
    const Matrix b_dense = la::matmul(dense.view(), x.view());
    for (index_t i = 0; i < b_block.rows(); ++i) {
      for (index_t j = 0; j < b_block.cols(); ++j) {
        EXPECT_NEAR(b_block(i, j), b_dense(i, j), 1e-12) << to_string(kind);
      }
    }
  }
}

TEST(Spmv, ResidualOfExactSolutionIsZero) {
  const BlockTridiag t = make_problem(ProblemKind::kPoisson2D, 5, 2);
  const Matrix x = make_rhs(5, 2, 3);
  const Matrix b = apply(t, x);
  EXPECT_LT(relative_residual(t, x, b), 1e-14);
}

TEST(Spmv, ApplyRejectsAWrongRowCount) {
  const BlockTridiag t = make_problem(ProblemKind::kPoisson2D, 5, 2);
  const Matrix x(t.dim() + 3, 2);
  try {
    (void)apply(t, x);
    FAIL() << "expected fault::ShapeMismatchError";
  } catch (const fault::ShapeMismatchError& e) {
    EXPECT_EQ(e.got(), t.dim() + 3);
    EXPECT_EQ(e.expected(), t.dim());
  }
}

TEST(Generators, AllKindsProduceInvertibleUpperBlocks) {
  for (ProblemKind kind : kAllProblemKinds) {
    const BlockTridiag t = make_problem(kind, 8, 4);
    for (index_t i = 0; i + 1 < 8; ++i) {
      const la::LuFactors f = la::lu_factor(t.upper(i).view());
      EXPECT_TRUE(f.ok()) << to_string(kind) << " row " << i;
    }
  }
}

TEST(Generators, DiagDominantRowsAreDominant) {
  const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, 6, 4, /*seed=*/99);
  for (index_t i = 0; i < 6; ++i) {
    for (index_t r = 0; r < 4; ++r) {
      double off = 0.0;
      for (index_t c = 0; c < 4; ++c) {
        if (c != r) off += std::abs(t.diag(i)(r, c));
        if (i > 0) off += std::abs(t.lower(i)(r, c));
        if (i + 1 < 6) off += std::abs(t.upper(i)(r, c));
      }
      EXPECT_GT(std::abs(t.diag(i)(r, r)), off);
    }
  }
}

TEST(Generators, DeterministicInSeed) {
  const BlockTridiag a = make_problem(ProblemKind::kToeplitz, 4, 3, 5);
  const BlockTridiag b = make_problem(ProblemKind::kToeplitz, 4, 3, 5);
  EXPECT_TRUE(a.diag(2) == b.diag(2));
  EXPECT_TRUE(a.lower(1) == b.lower(1));
  const BlockTridiag c = make_problem(ProblemKind::kToeplitz, 4, 3, 6);
  EXPECT_FALSE(a.diag(2) == c.diag(2));
}

TEST(Generators, ToeplitzRowsRepeat) {
  const BlockTridiag t = make_problem(ProblemKind::kToeplitz, 5, 2);
  EXPECT_TRUE(t.diag(1) == t.diag(3));
  EXPECT_TRUE(t.lower(1) == t.lower(4));
  EXPECT_TRUE(t.upper(0) == t.upper(2));
}

TEST(Generators, PoissonStructure) {
  const BlockTridiag t = make_problem(ProblemKind::kPoisson2D, 3, 3);
  EXPECT_EQ(t.diag(0)(0, 0), 4.0);
  EXPECT_EQ(t.diag(0)(0, 1), -1.0);
  EXPECT_EQ(t.upper(0)(1, 1), -1.0);
  EXPECT_EQ(t.upper(0)(0, 1), 0.0);
}

TEST(Generators, NamesAreStable) {
  EXPECT_EQ(to_string(ProblemKind::kDiagDominant), "diagdom");
  EXPECT_EQ(to_string(ProblemKind::kIllConditioned), "illcond");
}

TEST(Partition, CountsSumToNAndDifferByAtMostOne) {
  for (index_t n : {1, 7, 16, 100}) {
    for (int p : {1, 2, 3, 7, 16}) {
      if (n < p) continue;
      const RowPartition part(n, p);
      index_t total = 0;
      index_t min_count = n;
      index_t max_count = 0;
      for (int r = 0; r < p; ++r) {
        const index_t c = part.count(r);
        total += c;
        min_count = std::min(min_count, c);
        max_count = std::max(max_count, c);
        EXPECT_EQ(part.end(r), part.begin(r) + c);
        if (r > 0) {
          EXPECT_EQ(part.begin(r), part.end(r - 1));
        }
      }
      EXPECT_EQ(total, n);
      EXPECT_LE(max_count - min_count, 1);
    }
  }
}

TEST(Partition, OwnerIsConsistentWithRanges) {
  const RowPartition part(23, 5);
  for (index_t i = 0; i < 23; ++i) {
    const int r = part.owner(i);
    EXPECT_GE(i, part.begin(r));
    EXPECT_LT(i, part.end(r));
  }
}

}  // namespace
}  // namespace ardbt::btds
