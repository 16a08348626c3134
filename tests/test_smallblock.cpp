#include "src/la/smallblock/smallblock.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/btds/distributed.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/partition.hpp"
#include "src/btds/spmv.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/solver.hpp"
#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/lu.hpp"
#include "src/la/random.hpp"
#include "src/la/smallblock/kernels.hpp"
#include "src/la/workspace.hpp"
#include "src/par/pool.hpp"

namespace ardbt::la {
namespace {

/// Every dispatched block size, plus non-dispatchable controls.
constexpr index_t kDispatched[] = {2, 4, 8, 16, 32};

/// Restore the global microkernel switch no matter how a test exits.
class DisabledGuard {
 public:
  DisabledGuard() { smallblock::set_enabled(false); }
  ~DisabledGuard() { smallblock::set_enabled(true); }
};

TEST(SmallBlock, DispatchTable) {
  for (index_t m : kDispatched) EXPECT_TRUE(smallblock::dispatchable(m)) << m;
  for (index_t m : {1, 3, 5, 6, 7, 9, 15, 17, 31, 33, 64}) {
    EXPECT_FALSE(smallblock::dispatchable(m)) << m;
  }
}

// --- exhaustive bit-identity sweep -----------------------------------

/// Operand flavours of the sweep: plain uniform entries; exact zeros and
/// -0.0 (the skip-on-zero branches and signed-zero rounding); subnormals;
/// and +-Inf / NaN.
enum class Fill { kPlain, kZeros, kSubnormal, kNonFinite };
constexpr Fill kFills[] = {Fill::kPlain, Fill::kZeros, Fill::kSubnormal, Fill::kNonFinite};

/// The platform's default NaN, made at run time so every NaN in a sweep —
/// planted or produced by Inf - Inf — carries the same bits, and a bitwise
/// comparison cannot depend on which operand's payload an add propagates.
double default_nan() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

/// Overwrite a uniform fill with a seeded share of the flavour's values.
void sprinkle(MatrixView v, Fill fill, Rng& rng) {
  fill_uniform(v, rng);
  if (fill == Fill::kPlain) return;
  std::uniform_int_distribution<int> pick(0, 7);
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (index_t i = 0; i < v.rows(); ++i) {
    for (index_t j = 0; j < v.cols(); ++j) {
      const int p = pick(rng);
      double& x = v(i, j);
      switch (fill) {
        case Fill::kZeros:
          if (p < 3) x = 0.0;
          if (p == 3) x = -0.0;
          break;
        case Fill::kSubnormal:
          if (p < 3) x = x * 1e-310;
          if (p == 3) x = tiny * static_cast<double>(1 + j);
          if (p == 4) x = 0.0;
          break;
        case Fill::kNonFinite:
          if (p == 0) x = std::numeric_limits<double>::infinity();
          if (p == 1) x = -std::numeric_limits<double>::infinity();
          if (p == 2 && (i + j) % 3 == 0) x = default_nan();
          if (p == 3) x = 0.0;
          break;
        case Fill::kPlain:
          break;
      }
    }
  }
}

/// Bitwise equality of two equally-shaped views, row by row. Unlike
/// Matrix ==, it tells -0.0 from 0.0 and compares NaNs by their bits.
bool same_bits(ConstMatrixView x, ConstMatrixView y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (index_t i = 0; i < x.rows(); ++i) {
    const auto bytes = static_cast<std::size_t>(x.cols()) * sizeof(double);
    if (std::memcmp(x.row_ptr(i), y.row_ptr(i), bytes) != 0) return false;
  }
  return true;
}

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// An M x n operand inside a larger buffer: ld > n and a nonzero offset,
/// like the spike-panel blocks ard.cpp hands to the kernels. The padding
/// is filled too, so a kernel writing outside its view shows up when the
/// whole backing matrices are compared.
struct Strided {
  Matrix backing;
  index_t r0, c0, rows, cols;
  Strided(index_t nr, index_t nc, Fill fill, Rng& rng)
      : backing(nr + 2, 2 * nc + 3), r0(1), c0(2), rows(nr), cols(nc) {
    sprinkle(backing.view(), fill, rng);
  }
  MatrixView view() { return backing.view().block(r0, c0, rows, cols); }
  ConstMatrixView view() const { return backing.view().block(r0, c0, rows, cols); }
};

/// Every width the kernels' column cascade can see for block order m:
/// 1..2m+1 (all tile remainders, the 2M-wide spike panels) plus 4m.
std::vector<index_t> sweep_widths(index_t m) {
  std::vector<index_t> w;
  for (index_t n = 1; n <= 2 * m + 1; ++n) w.push_back(n);
  w.push_back(4 * m);
  return w;
}

/// The determinism contract: the fixed-M kernel and the generic gemm share
/// the same per-element operation order, so their results are
/// bit-identical — on every tile width, strided views and special values;
/// the naive dot-product order only agrees to rounding.
TEST(SmallBlock, GemmBitIdenticalToGenericAndNaive) {
  for (index_t m : kDispatched) {
    for (index_t n : sweep_widths(m)) {
      for (Fill fill : kFills) {
        Rng rng = make_rng(11, static_cast<std::uint64_t>(m * 10000 + n * 10) +
                                   static_cast<std::uint64_t>(fill));
        const Strided a(m, m, fill, rng);
        const Strided b(m, n, fill, rng);
        const Strided c0(m, n, fill, rng);
        for (const double alpha : {1.0, -1.0, 1.7}) {
          for (const double beta : {0.0, 1.0, -0.25}) {
            const auto where = ::testing::Message()
                               << "m=" << m << " n=" << n << " fill=" << static_cast<int>(fill)
                               << " alpha=" << alpha << " beta=" << beta;
            Strided c_fixed = c0;
            smallblock::gemm_fixed(m, alpha, a.view(), b.view(), beta, c_fixed.view());
            Strided c_generic = c0;
            {
              DisabledGuard off;
              gemm(alpha, a.view(), b.view(), beta, c_generic.view());
            }
            Strided c_dispatch = c0;
            gemm(alpha, a.view(), b.view(), beta, c_dispatch.view());
            ASSERT_TRUE(same_bits(c_fixed.backing.view(), c_generic.backing.view())) << where;
            ASSERT_TRUE(same_bits(c_fixed.backing.view(), c_dispatch.backing.view())) << where;

            if (fill != Fill::kPlain) continue;
            Strided c_naive = c0;
            gemm_naive(alpha, a.view(), b.view(), beta, c_naive.view());
            double naive_diff = 0.0;
            for (index_t i = 0; i < m; ++i) {
              for (index_t j = 0; j < n; ++j) {
                naive_diff = std::max(naive_diff,
                                      std::abs(c_fixed.view()(i, j) - c_naive.view()(i, j)));
              }
            }
            EXPECT_LT(naive_diff, 1e-12 * static_cast<double>(m)) << where;
          }
        }
      }
    }
  }
}

TEST(SmallBlock, LuFactorAndSolveBitIdentical) {
  for (index_t m : kDispatched) {
    Rng rng = make_rng(12, static_cast<std::uint64_t>(m));
    const Matrix a = random_diag_dominant(m, rng);
    const Matrix b = random_uniform(m, 5, rng);

    LuFactors f_fixed = lu_factor(a.view());  // dispatches to the microkernel
    LuFactors f_generic;
    {
      DisabledGuard off;
      f_generic = lu_factor(a.view());
    }
    EXPECT_TRUE(f_fixed.lu == f_generic.lu) << m;
    EXPECT_EQ(f_fixed.piv, f_generic.piv) << m;
    EXPECT_EQ(f_fixed.info, f_generic.info) << m;
    EXPECT_EQ(f_fixed.min_pivot_abs, f_generic.min_pivot_abs) << m;
    EXPECT_EQ(f_fixed.max_pivot_abs, f_generic.max_pivot_abs) << m;
    EXPECT_EQ(f_fixed.growth, f_generic.growth) << m;

    Matrix x_fixed = b;
    lu_solve_inplace(f_fixed, x_fixed.view());
    Matrix x_generic = b;
    {
      DisabledGuard off;
      lu_solve_inplace(f_generic, x_generic.view());
    }
    EXPECT_TRUE(x_fixed == x_generic) << m;
  }
}

/// Both TRSM halves through lu_solve_inplace, on packed factors with the
/// flavour's values in L and U (exact zeros hit the skip branches) and a
/// random row permutation.
TEST(SmallBlock, LuSolveSweepBitIdenticalToGeneric) {
  for (index_t m : kDispatched) {
    for (index_t n : sweep_widths(m)) {
      for (Fill fill : kFills) {
        Rng rng = make_rng(22, static_cast<std::uint64_t>(m * 10000 + n * 10) +
                                   static_cast<std::uint64_t>(fill));
        const Strided lu(m, m, fill, rng);
        std::vector<index_t> piv(static_cast<std::size_t>(m));
        for (index_t k = 0; k < m; ++k) {
          piv[static_cast<std::size_t>(k)] =
              std::uniform_int_distribution<index_t>(k, m - 1)(rng);
        }
        const Strided b(m, n, fill, rng);

        Strided x_fixed = b;
        lu_solve_inplace(lu.view(), piv, x_fixed.view());
        Strided x_generic = b;
        {
          DisabledGuard off;
          lu_solve_inplace(lu.view(), piv, x_generic.view());
        }
        ASSERT_TRUE(same_bits(x_fixed.backing.view(), x_generic.backing.view()))
            << "m=" << m << " n=" << n << " fill=" << static_cast<int>(fill);
      }
    }
  }
}

TEST(SmallBlock, LuFactorSweepBitIdenticalToGeneric) {
  for (index_t m : kDispatched) {
    for (Fill fill : kFills) {
      for (std::uint64_t rep = 0; rep < 8; ++rep) {
        Rng rng = make_rng(23, static_cast<std::uint64_t>(m * 100) +
                                   static_cast<std::uint64_t>(fill) * 10 + rep);
        const Strided a(m, m, fill, rng);

        Strided f_fixed = a;
        std::vector<index_t> piv_fixed(static_cast<std::size_t>(m));
        const LuInPlaceInfo d_fixed = lu_factor_inplace(f_fixed.view(), piv_fixed);
        Strided f_generic = a;
        std::vector<index_t> piv_generic(static_cast<std::size_t>(m));
        LuInPlaceInfo d_generic;
        {
          DisabledGuard off;
          d_generic = lu_factor_inplace(f_generic.view(), piv_generic);
        }
        const auto where = ::testing::Message()
                           << "m=" << m << " fill=" << static_cast<int>(fill) << " rep=" << rep;
        ASSERT_TRUE(same_bits(f_fixed.backing.view(), f_generic.backing.view())) << where;
        EXPECT_EQ(piv_fixed, piv_generic) << where;
        EXPECT_EQ(d_fixed.info, d_generic.info) << where;
        EXPECT_TRUE(same_bits(d_fixed.min_pivot_abs, d_generic.min_pivot_abs)) << where;
        EXPECT_TRUE(same_bits(d_fixed.max_pivot_abs, d_generic.max_pivot_abs)) << where;
        EXPECT_TRUE(same_bits(d_fixed.growth, d_generic.growth)) << where;
      }
    }
  }
}

/// Zero pivots must complete with identical LAPACK-style info/diagnostics
/// on both paths (the `if (x == 0.0) continue` skips are part of the
/// contract).
TEST(SmallBlock, SingularFactorDiagnosticsMatch) {
  for (index_t m : {index_t{2}, index_t{4}}) {
    Matrix a(m, m);  // all zero -> every pivot singular
    LuFactors f_fixed = lu_factor(a.view());
    LuFactors f_generic;
    {
      DisabledGuard off;
      f_generic = lu_factor(a.view());
    }
    EXPECT_FALSE(f_fixed.ok());
    EXPECT_EQ(f_fixed.info, f_generic.info) << m;
    EXPECT_TRUE(f_fixed.lu == f_generic.lu) << m;
  }
}

/// What one factor-and-solve of [A | C] covered, summed over a sweep.
struct FusedCoverage {
  int swaps = 0;        ///< row swaps (piv[k] != k)
  int zero_lik = 0;     ///< exact-zero multipliers below a nonzero pivot
  int singular = 0;     ///< factorizations that met a zero pivot
};

/// K::lu_factor_solve on copies of (a, c) against lu_factor_inplace and,
/// when the factor is ok(), lu_solve_inplace on the generic path: the
/// factor, its row swaps, info and diagnostics, and the solved block
/// agree bit for bit, padding included. A singular factor leaves c
/// unspecified, so only the factor side is compared.
template <typename K>
void expect_fused_matches(const Strided& a, const Strided& c, const std::string& where,
                          FusedCoverage& cov) {
  const index_t m = a.rows;
  Strided a_ref = a, c_ref = c;
  std::vector<index_t> piv_ref(static_cast<std::size_t>(m));
  LuInPlaceInfo d_ref;
  {
    DisabledGuard off;
    d_ref = lu_factor_inplace(a_ref.view(), piv_ref);
    if (d_ref.ok()) lu_solve_inplace(a_ref.view(), piv_ref, c_ref.view());
  }
  Strided a_fused = a, c_fused = c;
  std::vector<index_t> piv_fused(static_cast<std::size_t>(m));
  const LuInPlaceInfo d_fused = K::lu_factor_solve(a_fused.view(), piv_fused.data(), c_fused.view());

  ASSERT_TRUE(same_bits(a_fused.backing.view(), a_ref.backing.view())) << where;
  EXPECT_EQ(piv_fused, piv_ref) << where;
  EXPECT_EQ(d_fused.info, d_ref.info) << where;
  EXPECT_TRUE(same_bits(d_fused.min_pivot_abs, d_ref.min_pivot_abs)) << where;
  EXPECT_TRUE(same_bits(d_fused.max_pivot_abs, d_ref.max_pivot_abs)) << where;
  EXPECT_TRUE(same_bits(d_fused.growth, d_ref.growth)) << where;
  if (d_ref.ok()) {
    ASSERT_TRUE(same_bits(c_fused.backing.view(), c_ref.backing.view())) << where;
  } else {
    ++cov.singular;
  }
  for (index_t k = 0; k < m; ++k) {
    cov.swaps += piv_ref[static_cast<std::size_t>(k)] != k;
    for (index_t i = k + 1; i < m && a_ref.view()(k, k) != 0.0; ++i) {
      cov.zero_lik += a_ref.view()(i, k) == 0.0;
    }
  }
}

/// The fused elimination of a pivot block and its coupling ([D | C] once,
/// then U's back substitution) is bit-identical to LU followed by
/// lu_solve: FixedKernels<M> on every dispatched M, and GenericKernels
/// (which calls the two steps) on dispatched and other orders, over the
/// flavour sweep — random blocks (row swaps), exact zeros (zero
/// multipliers), subnormals and non-finite values — and on blocks with a
/// zero column, whose zero pivot gives the same info and diagnostics.
TEST(SmallBlock, LuFactorSolveMatchesFactorThenSolve) {
  FusedCoverage cov;
  for (index_t m : {index_t{1}, index_t{2}, index_t{3}, index_t{4}, index_t{6}, index_t{8},
                    index_t{16}, index_t{32}}) {
    for (Fill fill : kFills) {
      for (std::uint64_t rep = 0; rep < 6; ++rep) {
        Rng rng = make_rng(24, static_cast<std::uint64_t>(m * 100) +
                                   static_cast<std::uint64_t>(fill) * 10 + rep);
        Strided a(m, m, fill, rng);
        const Strided c(m, m, fill, rng);
        if (rep == 5) {
          // A zero column: that step's pivot is exactly zero.
          for (index_t i = 0; i < m; ++i) a.view()(i, m / 2) = 0.0;
        }
        const std::string where = "m=" + std::to_string(m) +
                                  " fill=" + std::to_string(static_cast<int>(fill)) +
                                  " rep=" + std::to_string(rep);
        expect_fused_matches<smallblock::GenericKernels>(a, c, where + " generic", cov);
        smallblock::dispatch(m, [&](auto tag) {
          expect_fused_matches<smallblock::FixedKernels<decltype(tag)::value>>(a, c,
                                                                               where + " fixed", cov);
        });
      }
    }
  }
  EXPECT_GT(cov.swaps, 0);
  EXPECT_GT(cov.zero_lik, 0);
  EXPECT_GT(cov.singular, 0);
}

TEST(SmallBlock, BatchedEntryPointsMatchPerItemCalls) {
  for (index_t m : {index_t{4}, index_t{6}}) {  // one dispatched, one fallback
    Rng rng = make_rng(13, static_cast<std::uint64_t>(m));
    const index_t count = 7;
    std::vector<Matrix> as, bs, cs_batched, cs_ref;
    for (index_t i = 0; i < count; ++i) {
      as.push_back(random_diag_dominant(m, rng));
      bs.push_back(random_uniform(m, 3, rng));
      cs_batched.push_back(random_uniform(m, 3, rng));
      cs_ref.push_back(cs_batched.back());
    }

    std::vector<smallblock::GemmItem> items;
    for (index_t i = 0; i < count; ++i) {
      items.push_back({as[static_cast<std::size_t>(i)].view(),
                       bs[static_cast<std::size_t>(i)].view(),
                       cs_batched[static_cast<std::size_t>(i)].view()});
    }
    smallblock::batched_gemm(m, -1.0, items, 1.0);
    {
      DisabledGuard off;
      for (index_t i = 0; i < count; ++i) {
        gemm(-1.0, as[static_cast<std::size_t>(i)].view(),
             bs[static_cast<std::size_t>(i)].view(), 1.0,
             cs_ref[static_cast<std::size_t>(i)].view());
      }
    }
    for (index_t i = 0; i < count; ++i) {
      EXPECT_TRUE(cs_batched[static_cast<std::size_t>(i)] == cs_ref[static_cast<std::size_t>(i)])
          << "m=" << m << " i=" << i;
    }

    std::vector<ConstMatrixView> views;
    for (const Matrix& a : as) views.push_back(a.view());
    std::vector<LuFactors> lus;
    smallblock::batched_lu_factor(m, views, lus);
    ASSERT_EQ(lus.size(), static_cast<std::size_t>(count));

    std::vector<Matrix> xs_batched, xs_ref;
    for (index_t i = 0; i < count; ++i) {
      xs_batched.push_back(bs[static_cast<std::size_t>(i)]);
      xs_ref.push_back(bs[static_cast<std::size_t>(i)]);
    }
    std::vector<smallblock::LuSolveItem> solves;
    for (index_t i = 0; i < count; ++i) {
      solves.push_back(
          {&lus[static_cast<std::size_t>(i)], xs_batched[static_cast<std::size_t>(i)].view()});
    }
    smallblock::batched_lu_solve(m, solves);
    {
      DisabledGuard off;
      for (index_t i = 0; i < count; ++i) {
        LuFactors ref = lu_factor(as[static_cast<std::size_t>(i)].view());
        EXPECT_TRUE(ref.lu == lus[static_cast<std::size_t>(i)].lu) << "m=" << m << " i=" << i;
        lu_solve_inplace(ref, xs_ref[static_cast<std::size_t>(i)].view());
      }
    }
    for (index_t i = 0; i < count; ++i) {
      EXPECT_TRUE(xs_batched[static_cast<std::size_t>(i)] == xs_ref[static_cast<std::size_t>(i)])
          << "m=" << m << " i=" << i;
    }
  }
}

/// Thomas solve must be bit-identical with the microkernel sweep on and
/// off, with an arena and without, and for any pool size.
/// Bitwise equality of two factorizations' stored corner spikes.
bool same_spikes(const btds::ThomasFactorization& x, const btds::ThomasFactorization& y) {
  if (x.v_rows() != y.v_rows() || x.w_first() != y.w_first()) return false;
  for (index_t i = 0; i < x.v_rows(); ++i) {
    if (!same_bits(x.v_block(i), y.v_block(i))) return false;
  }
  for (index_t i = x.w_first(); i < x.num_blocks(); ++i) {
    if (!same_bits(x.w_block(i), y.w_block(i))) return false;
  }
  return true;
}

/// The factor and the solve side each choose their kernel set: factoring
/// with the layer on or off, then solving with it on or off, gives the
/// same solutions and stored spikes bit for bit, for every factor entry
/// point, pivot kind and block order (dispatchable or not).
TEST(SmallBlock, ThomasSolveBitIdenticalAcrossPaths) {
  using btds::PivotKind;
  using btds::ThomasFactorization;
  const index_t n = 12;
  for (const PivotKind pivot : {PivotKind::kLu, PivotKind::kCholesky}) {
    // Cholesky needs SPD pivots, which the 2-D Poisson blocks give.
    const auto kind = pivot == PivotKind::kLu ? btds::ProblemKind::kDiagDominant
                                              : btds::ProblemKind::kPoisson2D;
    for (index_t m : {index_t{3}, index_t{4}, index_t{8}}) {
      const auto sys = btds::make_problem(kind, n, m);
      const btds::RowPartition part(n, 3);
      const auto local = btds::slice(sys, part, 1);
      const index_t lo = part.begin(1);
      const index_t rows = part.end(1) - lo;
      const Matrix b = btds::make_rhs(n, m, 6, 3);
      const Matrix b_local = btds::make_rhs(rows, m, 6, 5);
      // Rows [1, n - 1): an interior segment, which computes both spikes.
      const Matrix b_inner = btds::make_rhs(n - 2, m, 6, 4);
      struct Entry {
        const char* name;
        std::function<ThomasFactorization()> factor;
        const Matrix& b;
      };
      const Entry entries[] = {
          {"factor", [&] { return ThomasFactorization::factor(sys, pivot); }, b},
          {"segment", [&] { return ThomasFactorization::factor_segment(sys, 1, n - 2, pivot); },
           b_inner},
          {"local", [&] { return ThomasFactorization::factor_segment(local, lo, rows, pivot); },
           b_local},
      };
      for (const Entry& e : entries) {
        const std::string where = std::string(e.name) + " m=" + std::to_string(m) +
                                  (pivot == PivotKind::kLu ? " lu" : " chol");
        const ThomasFactorization f_on = e.factor();
        const ThomasFactorization f_off = [&] {
          DisabledGuard off;
          return e.factor();
        }();
        EXPECT_TRUE(same_spikes(f_on, f_off)) << where;

        const Matrix x = f_on.solve(e.b);
        EXPECT_TRUE(same_bits(x.view(), f_off.solve(e.b).view())) << where << " off/on";
        {
          DisabledGuard off;
          EXPECT_TRUE(same_bits(x.view(), f_on.solve(e.b).view())) << where << " on/off";
          EXPECT_TRUE(same_bits(x.view(), f_off.solve(e.b).view())) << where << " off/off";
        }

        Workspace ws;
        EXPECT_TRUE(same_bits(x.view(), f_on.solve(e.b, nullptr, &ws).view())) << where;
        par::Pool pool(8);  // more lanes than the 6 RHS columns
        EXPECT_TRUE(same_bits(x.view(), f_on.solve(e.b, &pool).view())) << where;
      }
    }
  }
}

// --- degenerate shapes ------------------------------------------------

TEST(SmallBlock, ScalarBlocksSolveCorrectly) {  // M=1 never dispatches
  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, 16, 1);
  const la::Matrix b = btds::make_rhs(16, 1, 3, 5);
  const Matrix x = btds::thomas_solve(sys, b);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12);

  core::Session session(core::Method::kArd, sys, 4);
  const Matrix x_ard = session.solve(b);
  EXPECT_LT(btds::relative_residual(sys, x_ard, b), 1e-10);
}

TEST(SmallBlock, SingleRhsColumn) {  // R=1 panels
  const auto sys = btds::make_problem(btds::ProblemKind::kPoisson2D, 9, 4);
  const la::Matrix b = btds::make_rhs(9, 4, 1, 7);
  const auto f = btds::ThomasFactorization::factor(sys);
  const Matrix x = f.solve(b);
  Matrix x_generic;
  {
    DisabledGuard off;
    x_generic = f.solve(b);
  }
  EXPECT_TRUE(x == x_generic);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12);
}

TEST(SmallBlock, PoolRangeSmallerThanThreads) {
  par::Pool pool(8);
  std::vector<int> hits(3, 0);
  pool.parallel_for(
      0, 3, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) hits[static_cast<std::size_t>(i)]++;
      },
      "test.small_range");
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(SmallBlock, EmptyParallelForRange) {
  par::Pool pool(4);
  bool called = false;
  pool.parallel_for(0, 0, [&](std::int64_t, std::int64_t) { called = true; }, "test.empty");
  EXPECT_FALSE(called);
}

// --- workspace arena --------------------------------------------------

TEST(SmallBlock, WorkspaceRecyclesSlabs) {
  Workspace ws;
  Matrix a = ws.acquire(8, 8);
  EXPECT_EQ(a.rows(), 8);
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j < 8; ++j) EXPECT_EQ(a(i, j), 0.0);  // acquire zero-fills
  }
  a(0, 0) = 42.0;
  ws.release(std::move(a));
  EXPECT_EQ(ws.stats().slab_allocs, 1u);
  EXPECT_EQ(ws.pooled_buffers(), 1u);

  // Same shape -> the pooled slab is reused, zeroed again.
  Matrix b = ws.acquire(8, 8);
  EXPECT_EQ(b(0, 0), 0.0);
  EXPECT_EQ(ws.stats().slab_allocs, 1u);
  // A smaller request also fits the pooled capacity.
  ws.release(std::move(b));
  Matrix c = ws.acquire(4, 4);
  EXPECT_EQ(ws.stats().slab_allocs, 1u);
  ws.release(std::move(c));
  // A larger one does not.
  Matrix d = ws.acquire(16, 16);
  EXPECT_EQ(ws.stats().slab_allocs, 2u);
  ws.release(std::move(d));
  EXPECT_EQ(ws.stats().acquires, 4u);
  EXPECT_EQ(ws.stats().releases, 4u);
  EXPECT_GT(ws.stats().high_water_bytes, 0u);
}

TEST(SmallBlock, NullWorkspaceHelpersFallBackToPlainMatrices) {
  Matrix a = ws_acquire(nullptr, 3, 4);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 4);
  ws_release(nullptr, std::move(a));  // must be a safe no-op
}

}  // namespace
}  // namespace ardbt::la
