#include "src/btds/thomas.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/btds/distributed.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/lu.hpp"
#include "src/la/smallblock/smallblock.hpp"

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

/// EXPECT `fn` to throw fault::InvalidArgumentError with its typed code.
template <typename Fn>
void expect_invalid_argument(Fn&& fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << what << ": no error";
  } catch (const fault::InvalidArgumentError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kInvalidArgument) << what;
  }
}

// The public entry points reject bad shapes with a typed error in every
// build type, before any block is read or written.
TEST(Thomas, FactorRejectsEmptySystem) {
  const BlockTridiag empty;
  expect_invalid_argument([&] { (void)ThomasFactorization::factor(empty); }, "empty system");
}

TEST(Thomas, FactorSegmentRejectsRowsOutsideTheSystem) {
  const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, 6, 2);
  const struct {
    index_t lo, n;
  } bad[] = {{0, 0}, {2, -1}, {-1, 3}, {4, 3}, {0, 7}, {6, 1},
             {1, std::numeric_limits<index_t>::max()}};
  for (const auto& [lo, n] : bad) {
    expect_invalid_argument([&] { (void)ThomasFactorization::factor_segment(t, lo, n); },
                            "lo=" + std::to_string(lo) + " n=" + std::to_string(n));
  }
  EXPECT_EQ(ThomasFactorization::factor_segment(t, 3, 3).num_blocks(), 3);
}

TEST(Thomas, FactorSegmentRejectsRowsOutsideTheSlice) {
  // A slice holds rows [lo(), hi()) of the system; a range inside the
  // system but outside the slice is rejected, and factor() (every row)
  // rejects the slice outright.
  const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, 12, 2);
  const RowPartition part(12, 3);  // rank 1 holds rows [4, 8)
  const BlockTridiag local = slice(t, part, 1);
  const struct {
    index_t lo, n;
  } bad[] = {{0, 4}, {3, 2}, {6, 3}, {8, 1}, {4, 5}};
  for (const auto& [lo, n] : bad) {
    expect_invalid_argument([&] { (void)ThomasFactorization::factor_segment(local, lo, n); },
                            "slice lo=" + std::to_string(lo) + " n=" + std::to_string(n));
  }
  expect_invalid_argument([&] { (void)ThomasFactorization::factor(local); }, "slice factor");
  EXPECT_EQ(ThomasFactorization::factor_segment(local, 4, 4).num_blocks(), 4);
}

TEST(Thomas, SolveRejectsWrongRowCount) {
  const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, 6, 2);
  const ThomasFactorization f = ThomasFactorization::factor(t);
  for (const index_t rows : {index_t{0}, index_t{11}, index_t{13}}) {
    expect_invalid_argument([&] { (void)f.solve(Matrix(rows, 2)); },
                            "rows=" + std::to_string(rows));
  }
}

TEST(Thomas, SolveInplaceRejectsWrongRowCount) {
  const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, 6, 2);
  const ThomasFactorization f = ThomasFactorization::factor(t);
  Matrix x(14, 3);
  for (const index_t rows : {index_t{10}, index_t{14}}) {
    expect_invalid_argument([&] { f.solve_inplace(x.block(0, 0, rows, 3)); },
                            "rows=" + std::to_string(rows));
  }
}

/// [V W] by the plain solve: solve_inplace on [E_first E_last], every row
/// swept.
Matrix full_spikes(const ThomasFactorization& f) {
  const index_t n = f.num_blocks();
  const index_t m = f.block_size();
  Matrix s(n * m, 2 * m);
  for (index_t i = 0; i < m; ++i) {
    s(i, i) = 1.0;
    s((n - 1) * m + i, m + i) = 1.0;
  }
  f.solve_inplace(s.view());
  return s;
}

/// The stored spikes as one (N*M) x 2M matrix, zero outside the support.
Matrix stored_spikes(const ThomasFactorization& f) {
  const index_t n = f.num_blocks();
  const index_t m = f.block_size();
  Matrix s(n * m, 2 * m);
  for (index_t i = 0; i < f.v_rows(); ++i) la::copy(f.v_block(i), s.block(i * m, 0, m, m));
  for (index_t i = f.w_first(); i < n; ++i) la::copy(f.w_block(i), s.block(i * m, m, m, m));
  return s;
}

/// Random symmetric, strictly diagonally dominant (hence SPD) system with
/// A_{i+1} = C_i^T, for the Cholesky pivots.
BlockTridiag make_spd(index_t n, index_t m) {
  BlockTridiag t = make_problem(ProblemKind::kDiagDominant, n, m);
  for (index_t i = 0; i + 1 < n; ++i) {
    for (index_t r = 0; r < m; ++r) {
      for (index_t c = 0; c < m; ++c) t.lower(i + 1)(r, c) = t.upper(i)(c, r);
    }
  }
  for (index_t i = 0; i < n; ++i) {
    Matrix& d = t.diag(i);
    for (index_t r = 0; r < m; ++r) {
      for (index_t c = r + 1; c < m; ++c) d(r, c) = d(c, r);
    }
    for (index_t r = 0; r < m; ++r) {
      double off = 1.0;
      for (index_t c = 0; c < m; ++c) {
        if (c != r) off += std::abs(d(r, c));
        if (i > 0) off += std::abs(t.lower(i)(r, c));
        if (i + 1 < n) off += std::abs(t.upper(i)(r, c));
      }
      d(r, r) = 2.0 * off;
    }
  }
  return t;
}

BlockTridiag spike_system(PivotKind pivot, ProblemKind kind, index_t n, index_t m) {
  return pivot == PivotKind::kCholesky && kind == ProblemKind::kDiagDominant
             ? make_spd(n, m)
             : make_problem(kind, n, m);
}

/// Rows [1, N - 1) of `t`: an interior segment, which has a neighbour on
/// each side and so computes both spikes.
ThomasFactorization interior_segment(const BlockTridiag& t, PivotKind pivot) {
  return ThomasFactorization::factor_segment(t, 1, t.num_blocks() - 2, pivot);
}
ThomasFactorization interior_segment(BlockTridiag&&, PivotKind) = delete;  // borrows `t`

/// Block rows [lo, lo + n) of `t` copied out as a standalone system.
BlockTridiag rows_of(const BlockTridiag& t, index_t lo, index_t n) {
  BlockTridiag seg(n, t.block_size());
  for (index_t k = 0; k < n; ++k) {
    seg.diag(k) = t.diag(lo + k);
    if (k > 0) seg.lower(k) = t.lower(lo + k);
    if (k + 1 < n) seg.upper(k) = t.upper(lo + k);
  }
  return seg;
}

TEST(Thomas, SegmentComputesOnlyTheSpikesItsNeighboursRead) {
  // V couples a segment to the rows above it and W to the rows below it,
  // so factor_segment computes V iff lo > 0 and W iff lo + n < N: an end
  // segment holds one spike, the whole system none, and the charge
  // counts only what was computed (6 M^3 per row for V, 2 M^3 for W).
  const index_t big = 12;
  const index_t m = 3;
  const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, big, m);
  const double m3 = static_cast<double>(m * m * m);

  const ThomasFactorization top = ThomasFactorization::factor_segment(t, 0, 4);
  EXPECT_EQ(top.v_rows(), 0);
  EXPECT_LT(top.w_first(), 4);
  EXPECT_EQ(ThomasFactorization::spike_flops(0, 4, big, m), 2.0 * 4 * m3);

  const ThomasFactorization bottom = ThomasFactorization::factor_segment(t, 8, 4);
  EXPECT_GT(bottom.v_rows(), 0);
  EXPECT_EQ(bottom.w_first(), 4);
  EXPECT_EQ(ThomasFactorization::spike_flops(8, 4, big, m), 6.0 * 4 * m3);

  const ThomasFactorization middle = ThomasFactorization::factor_segment(t, 4, 4);
  EXPECT_GT(middle.v_rows(), 0);
  EXPECT_LT(middle.w_first(), 4);
  EXPECT_EQ(ThomasFactorization::spike_flops(4, 4, big, m), 8.0 * 4 * m3);

  const ThomasFactorization whole = ThomasFactorization::factor_segment(t, 0, big);
  EXPECT_EQ(whole.v_rows(), 0);
  EXPECT_EQ(whole.w_first(), big);
  EXPECT_EQ(ThomasFactorization::spike_flops(0, big, big, m), 0.0);
  const std::size_t slab = static_cast<std::size_t>(2 * big - 1) * m * m * sizeof(double) +
                           static_cast<std::size_t>(big * m) * sizeof(la::index_t);
  EXPECT_EQ(whole.storage_bytes(), slab);
  EXPECT_EQ(ThomasFactorization::factor(t).storage_bytes(), slab);
}

TEST(Thomas, CornerSpikesMatchUnitLoadSolves) {
  // An interior segment (rows [1, n + 1) of an (n + 2)-row system, so both
  // spikes are computed) whose spikes never decay below DBL_EPSILON
  // relative to their tip keeps full support, and its spikes are exactly
  // what solve_inplace gives on [E_first E_last] — on the fixed-M path (M = 8, 16) and the
  // generic one (M = 3), with LU and Cholesky pivots. Diagonally dominant
  // spikes fall below the cutoff after 10-17 rows, so they stay whole at
  // up to 9 rows. Poisson's slowest mode decays by ~0.45 per row at M = 3,
  // ~0.7 at M = 8 and ~0.83 at M = 16 (about 48, 101 and 190 rows to the
  // cutoff), so 24 rows stay whole at every M and 80 at M = 8 and 16.
  for (const PivotKind pivot : {PivotKind::kLu, PivotKind::kCholesky}) {
    for (const index_t m : {index_t{3}, index_t{8}, index_t{16}}) {
      for (const index_t n : {index_t{1}, index_t{2}, index_t{9}, index_t{24}, index_t{80}}) {
        const ProblemKind kind = n > 9 ? ProblemKind::kPoisson2D : ProblemKind::kDiagDominant;
        if (n > 24 && m == 3) continue;
        const BlockTridiag t = spike_system(pivot, kind, n + 2, m);
        const ThomasFactorization f = interior_segment(t, pivot);
        const std::string where = "pivot=" + std::to_string(static_cast<int>(pivot)) +
                                  " M=" + std::to_string(m) + " N=" + std::to_string(n);
        ASSERT_EQ(f.v_rows(), n) << where;
        ASSERT_EQ(f.w_first(), 0) << where;
        const Matrix ref = full_spikes(f);
        const Matrix s = stored_spikes(f);
        for (index_t i = 0; i < s.rows(); ++i) {
          for (index_t j = 0; j < s.cols(); ++j) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(s(i, j)), std::bit_cast<std::uint64_t>(ref(i, j)))
                << where << " at (" << i << "," << j << ")";
          }
        }
        EXPECT_EQ(f.v_corner(n - 1).data()[0], ref((n - 1) * m, 0)) << where;
        EXPECT_EQ(f.w_corner(0).data()[0], ref(0, m)) << where;
      }
    }
  }
  EXPECT_EQ(ThomasFactorization::spike_flops(1, 10, 12, 4), 8.0 * 10 * 64);
}

TEST(Thomas, LongDecayingSegmentStoresOnlyTheSpikeSupport) {
  // On a long diagonally dominant segment the spikes fall below working
  // precision long before the far end. Against the full sweep:
  //  * the support is shorter than the segment, and no subnormal is stored;
  //  * every entry, stored or dropped, is within 2 DBL_EPSILON t_c of the
  //    full sweep's value. A column's dropped rows start below
  //    DBL_EPSILON t_c and keep decaying; V's backward correction past its
  //    forward cut adds at most a factor 1 / (1 - gamma rho), gamma and
  //    rho the per-row decay of G_i and of V's forward sweep
  //    (docs/ALGORITHMS.md §4), and the measured worst here is 0.95;
  //  * W is swept from its tip exactly as before, so every stored W entry
  //    is bit-identical. V's forward sweep stops at the cut, and the
  //    backward correction carries that change towards the tip shrinking
  //    as the entries grow: at an entry of size |V| it is about
  //    (DBL_EPSILON t_c)^2 / |V|, under an ulp once |V| is well above
  //    sqrt(DBL_EPSILON) t_c. V entries 2^10 above that keep their bits
  //    (the largest that moves here is 5e-8 t_c);
  //  * storage_bytes() counts the support, not the segment.
  for (const PivotKind pivot : {PivotKind::kLu, PivotKind::kCholesky}) {
    for (const index_t m : {index_t{3}, index_t{8}, index_t{16}}) {
      // Both supports end far inside the segment: a gap of untouched rows
      // separates them.
      const index_t n = m == 3 ? 400 : 700;
      const BlockTridiag t = spike_system(pivot, ProblemKind::kDiagDominant, n + 2, m);
      const ThomasFactorization f = interior_segment(t, pivot);
      const std::string where =
          "pivot=" + std::to_string(static_cast<int>(pivot)) + " M=" + std::to_string(m);
      EXPECT_LT(f.v_rows(), n) << where;
      EXPECT_GT(f.w_first(), 0) << where;
      const std::size_t support = static_cast<std::size_t>(f.v_rows() + n - f.w_first());
      const BlockTridiag inner = rows_of(t, 1, n);
      EXPECT_EQ(f.storage_bytes() - ThomasFactorization::factor(inner, pivot).storage_bytes(),
                support * static_cast<std::size_t>(m * m) * sizeof(double))
          << where;

      const Matrix ref = full_spikes(f);
      const Matrix s = stored_spikes(f);
      // Tips as the rule reads them: V's from the forward sweep's first
      // row D_0^{-1} (the segment's first row is row 1 of t), W's from its
      // own last row.
      const BlockTridiag d0 = rows_of(t, 1, 1);
      const Matrix z0 = ThomasFactorization::factor(d0, pivot).solve(Matrix::identity(m));
      for (index_t j = 0; j < 2 * m; ++j) {
        double tip = 0.0;
        for (index_t r = 0; r < m; ++r) {
          tip = std::max(tip, std::abs(j < m ? z0(r, j) : ref((n - 1) * m + r, j)));
        }
        const double cut = DBL_EPSILON * tip;
        for (index_t i = 0; i < s.rows(); ++i) {
          const double got = s(i, j);
          const double want = ref(i, j);
          ASSERT_FALSE(got != 0.0 && std::abs(got) < DBL_MIN) << where << " subnormal stored";
          ASSERT_LE(std::abs(got - want), 2.0 * cut) << where << " at (" << i << "," << j << ")";
          if (j >= m ? got != 0.0 : std::abs(want) >= 0x1p10 * std::sqrt(DBL_EPSILON) * tip) {
            ASSERT_EQ(got, want) << where << " at (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(Thomas, DiagDominantSpikesStopAtWorkingPrecision) {
  // The cut is at working precision: on a 1024-row diagonally dominant
  // segment at M = 16 each spike falls below DBL_EPSILON t_c within a few
  // rows (13 for V and 10 for W under LU), where a cut at DBL_MIN t_c
  // would keep about 250 and 195.
  const index_t n = 1024;
  const index_t m = 16;
  for (const PivotKind pivot : {PivotKind::kLu, PivotKind::kCholesky}) {
    const BlockTridiag t = spike_system(pivot, ProblemKind::kDiagDominant, n + 2, m);
    const ThomasFactorization f = interior_segment(t, pivot);
    const std::string where = "pivot=" + std::to_string(static_cast<int>(pivot));
    EXPECT_GE(f.v_rows(), 1) << where;
    EXPECT_LE(f.v_rows(), 32) << where;
    EXPECT_LE(n - f.w_first(), 32) << where;
  }
}

TEST(Thomas, SegmentFactorReadsTheCallersRowsInPlace) {
  // factor_segment over rows [lo, lo + n) of a larger system — the whole
  // system or a slice holding them — gives the bits of factoring that
  // segment copied out, with one neighbour row on each side so that both
  // spikes are computed, as a standalone system.
  const index_t big = 51;
  const RowPartition part(big, 3);  // rank 1 owns rows [17, 34)
  const index_t lo = part.begin(1), n = part.count(1);
  for (const index_t m : {index_t{3}, index_t{8}}) {
    const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, big, m);
    const BlockTridiag local = slice(t, part, 1);
    const Matrix b = make_rhs(n, m, 3);
    const BlockTridiag padded = rows_of(t, lo - 1, n + 2);
    const ThomasFactorization ref = interior_segment(padded, PivotKind::kLu);
    const Matrix x_ref = ref.solve(b);
    const Matrix s_ref = stored_spikes(ref);
    for (const ThomasFactorization& f : {ThomasFactorization::factor_segment(t, lo, n),
                                         ThomasFactorization::factor_segment(local, lo, n)}) {
      EXPECT_EQ(f.storage_bytes(), ref.storage_bytes());
      const Matrix x = f.solve(b);
      const Matrix s = stored_spikes(f);
      EXPECT_EQ(std::memcmp(x.data().data(), x_ref.data().data(), x.data().size_bytes()), 0);
      EXPECT_EQ(std::memcmp(s.data().data(), s_ref.data().data(), s.data().size_bytes()), 0);
    }
  }
}

/// The block-Thomas sweep written out with the unfused la:: calls: per
/// row lu_factor of D'_i, lu_solve for G_i = D'_i^{-1} C_i, and
/// D'_{i+1} = D_{i+1} - A_{i+1} G_i; then both solve sweeps on b. A
/// singular pivot stops it with the row, pivot index and growth the
/// factor reports.
struct UnfusedThomas {
  Matrix x;
  fault::PivotDiagnostics diag;
  std::int64_t singular_row = -1;
  std::int64_t singular_index = -1;
  double growth = 0.0;

  UnfusedThomas(const BlockTridiag& t, const Matrix& b) {
    const index_t n = t.num_blocks();
    const index_t m = t.block_size();
    std::vector<la::LuFactors> lu;
    std::vector<Matrix> g;
    Matrix d = t.diag(0);
    for (index_t i = 0; i < n; ++i) {
      la::LuFactors f = la::lu_factor(d.view());
      if (!f.ok()) {
        singular_row = i;
        singular_index = f.info - 1;
        growth = f.growth;
        return;
      }
      diag.observe(f.min_pivot_abs, f.max_pivot_abs, i);
      if (i + 1 < n) {
        Matrix gi = t.upper(i);
        la::lu_solve_inplace(f, gi.view());
        d = t.diag(i + 1);
        la::gemm(-1.0, t.lower(i + 1).view(), gi.view(), 1.0, d.view());
        g.push_back(std::move(gi));
      }
      lu.push_back(std::move(f));
    }
    x = b;
    for (index_t i = 0; i < n; ++i) {
      const la::MatrixView xi = block_row(x, i, m);
      if (i > 0) la::gemm(-1.0, t.lower(i).view(), block_row(x, i - 1, m), 1.0, xi);
      la::lu_solve_inplace(lu[static_cast<std::size_t>(i)], xi);
    }
    for (index_t i = n - 2; i >= 0; --i) {
      la::gemm(-1.0, g[static_cast<std::size_t>(i)].view(), block_row(x, i + 1, m), 1.0,
               block_row(x, i, m));
    }
  }
};

/// `t` with the scalar rows of every block row reversed (D_i, A_i and C_i
/// alike), so partial pivoting swaps rows in every pivot block.
BlockTridiag reversed_rows(BlockTridiag t) {
  const index_t m = t.block_size();
  for (index_t i = 0; i < t.num_blocks(); ++i) {
    std::vector<Matrix*> blocks{&t.diag(i)};
    if (i > 0) blocks.push_back(&t.lower(i));
    if (i + 1 < t.num_blocks()) blocks.push_back(&t.upper(i));
    for (Matrix* blk : blocks) {
      for (index_t r = 0; r < m / 2; ++r) {
        for (index_t c = 0; c < m; ++c) std::swap((*blk)(r, c), (*blk)(m - 1 - r, c));
      }
    }
  }
  return t;
}

TEST(Thomas, FusedPivotEliminationMatchesFactorThenSolve) {
  // Under LU pivots each coupled row eliminates [D'_i | C_i] once
  // (K::lu_factor_solve) where it used to factor D'_i and then solve for
  // G_i. Against the unfused sweep the solutions and pivot diagnostics are
  // bit-identical, on the generic kernels (M = 3, or the layer off) and the
  // fixed ones, with row swaps in every pivot block (rows reversed) and
  // exact-zero multipliers (the sparse 2-D Poisson blocks).
  for (const ProblemKind kind : {ProblemKind::kDiagDominant, ProblemKind::kPoisson2D}) {
    for (const index_t m : {index_t{3}, index_t{4}, index_t{8}, index_t{16}}) {
      const index_t n = 20;
      const BlockTridiag t = reversed_rows(make_problem(kind, n, m));
      const Matrix b = make_rhs(n, m, 3);
      const UnfusedThomas ref(t, b);
      const la::LuFactors d0 = la::lu_factor(t.diag(0).view());
      ASSERT_NE(d0.piv[0], 0) << "no row swap in D_0";
      for (bool layer : {true, false}) {
        la::smallblock::set_enabled(layer);
        const ThomasFactorization f = ThomasFactorization::factor(t);
        la::smallblock::set_enabled(true);
        const std::string where = std::string(to_string(kind)) + " M=" + std::to_string(m) +
                                  " layer=" + std::to_string(layer);
        const Matrix x = f.solve(b);
        EXPECT_EQ(std::memcmp(x.data().data(), ref.x.data().data(), x.data().size_bytes()), 0)
            << where;
        const fault::PivotDiagnostics& d = f.pivot_diagnostics();
        EXPECT_EQ(d.min_pivot_abs, ref.diag.min_pivot_abs) << where;
        EXPECT_EQ(d.max_pivot_abs, ref.diag.max_pivot_abs) << where;
        EXPECT_EQ(d.min_pivot_block_row, ref.diag.min_pivot_block_row) << where;
        EXPECT_EQ(d.singular_info, ref.diag.singular_info) << where;
      }
    }
  }
  // Poisson's D_0 is tridiagonal: its LU has exact-zero multipliers.
  const la::LuFactors p0 = la::lu_factor(make_problem(ProblemKind::kPoisson2D, 2, 8).diag(0).view());
  EXPECT_EQ(p0.lu(7, 0), 0.0);
}

TEST(Thomas, FusedPivotEliminationReportsTheSingularRow) {
  // A zero column in D'_r stops the factor at row r with the unfused
  // sweep's block row, scalar pivot index and growth: on a coupled row
  // (fused elimination) and on the last row (factor only).
  for (const index_t m : {index_t{3}, index_t{8}}) {
    for (const index_t row : {index_t{2}, index_t{4}}) {
      BlockTridiag t = make_problem(ProblemKind::kDiagDominant, 5, m);
      t.lower(row) = Matrix(m, m);  // D'_row = D_row
      for (index_t r = 0; r < m; ++r) t.diag(row)(r, 1) = 0.0;
      const UnfusedThomas ref(t, make_rhs(5, m, 1));
      ASSERT_EQ(ref.singular_row, row);
      for (bool layer : {true, false}) {
        la::smallblock::set_enabled(layer);
        try {
          (void)ThomasFactorization::factor(t);
          ADD_FAILURE() << "no error at M=" << m << " row=" << row;
        } catch (const fault::SingularPivotError& e) {
          EXPECT_EQ(e.block_row(), ref.singular_row) << m << " " << row << " " << layer;
          EXPECT_EQ(e.pivot_index(), ref.singular_index) << m << " " << row << " " << layer;
          EXPECT_EQ(e.growth(), ref.growth) << m << " " << row << " " << layer;
        }
        la::smallblock::set_enabled(true);
      }
    }
  }
}

TEST(Thomas, RebindMovesTheBorrowedSystem) {
  // A factorization reads A_i from the system it borrows. rebind() moves
  // it to an equal system object, after which the first may be destroyed;
  // solves then match the original bit for bit. A system without the
  // factored rows or with another block order is rejected.
  const index_t n = 24, m = 4;
  auto first = std::make_unique<BlockTridiag>(make_problem(ProblemKind::kPoisson2D, n, m));
  const BlockTridiag second = *first;
  const Matrix b = make_rhs(n - 8, m, 2);
  ThomasFactorization f = ThomasFactorization::factor_segment(*first, 4, n - 8);
  const Matrix x_ref = f.solve(b);
  f.rebind(second);
  first.reset();
  const Matrix x = f.solve(b);
  EXPECT_EQ(std::memcmp(x.data().data(), x_ref.data().data(), x.data().size_bytes()), 0);

  const BlockTridiag other_m = make_problem(ProblemKind::kPoisson2D, n, m + 1);
  expect_invalid_argument([&] { f.rebind(other_m); }, "block order");
  const BlockTridiag local = slice(second, RowPartition(n, 2), 0);  // rows [0, 12)
  expect_invalid_argument([&] { f.rebind(local); }, "rows not held");
}

TEST(Thomas, FlopFormulasScale) {
  EXPECT_GT(ThomasFactorization::factor_flops(10, 4), 0.0);
  EXPECT_NEAR(ThomasFactorization::factor_flops(20, 4) / ThomasFactorization::factor_flops(10, 4),
              2.0, 1e-9);
  EXPECT_NEAR(ThomasFactorization::solve_flops(10, 4, 8) / ThomasFactorization::solve_flops(10, 4, 4),
              2.0, 1e-9);
}

/// storage_bytes() is exact: (2N - 1) M x M slab blocks, the N M LU row
/// swaps under kLu, and the spikes' stored support, whatever the block
/// order, pivot kind or small-block layer setting.
TEST(Thomas, StorageBytesExact) {
  const index_t n = 6;
  for (const PivotKind pivot : {PivotKind::kLu, PivotKind::kCholesky}) {
    const ProblemKind kind =
        pivot == PivotKind::kLu ? ProblemKind::kDiagDominant : ProblemKind::kPoisson2D;
    for (index_t m : {index_t{3}, index_t{8}}) {
      for (bool layer : {true, false}) {
        la::smallblock::set_enabled(layer);
        const BlockTridiag whole = make_problem(kind, n, m);
        const BlockTridiag padded = make_problem(kind, n + 2, m);
        const ThomasFactorization f = ThomasFactorization::factor(whole, pivot);
        const ThomasFactorization s = interior_segment(padded, pivot);
        la::smallblock::set_enabled(true);
        const std::size_t block = static_cast<std::size_t>(m * m) * sizeof(double);
        const std::size_t piv =
            pivot == PivotKind::kLu ? static_cast<std::size_t>(n * m) * sizeof(la::index_t) : 0;
        const std::size_t base = static_cast<std::size_t>(2 * n - 1) * block + piv;
        const std::size_t support = static_cast<std::size_t>(s.v_rows() + n - s.w_first());
        EXPECT_EQ(f.storage_bytes(), base) << m << " " << layer;
        EXPECT_EQ(s.storage_bytes(), base + support * block) << m << " " << layer;
      }
    }
  }
}

}  // namespace
}  // namespace ardbt::btds
