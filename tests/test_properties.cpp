// Numerical-property tests: the inequalities the stability arguments of
// DESIGN.md / docs/ALGORITHMS.md rest on, checked directly on generated
// systems rather than assumed.

#include <gtest/gtest.h>

#include <cmath>

#include "src/btds/generators.hpp"
#include "src/btds/thomas.hpp"
#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/lu.hpp"

namespace ardbt {
namespace {

using btds::BlockTridiag;
using btds::make_problem;
using btds::ProblemKind;
using la::index_t;
using la::Matrix;

/// Compute the block-LU pivots U_i by the sequential recurrence.
std::vector<Matrix> pivots(const BlockTridiag& t) {
  const index_t n = t.num_blocks();
  std::vector<Matrix> u;
  u.push_back(t.diag(0));
  for (index_t i = 1; i < n; ++i) {
    const la::LuFactors lu = la::lu_factor(u.back().view());
    const Matrix g = la::lu_solve(lu, t.upper(i - 1).view());
    Matrix next = t.diag(i);
    la::gemm(-1.0, t.lower(i).view(), g.view(), 1.0, next.view());
    u.push_back(std::move(next));
  }
  return u;
}

/// The couplings Phi_i = A_i U_{i-1}^{-1} and G_i = U_i^{-1} C_i must be
/// contractions (infinity norm < 1) for diagonally dominant systems —
/// the backbone of the two-port conditioning argument.
TEST(Properties, BlockLuCouplingsAreContractions) {
  for (ProblemKind kind : {ProblemKind::kDiagDominant, ProblemKind::kPoisson2D,
                           ProblemKind::kToeplitz}) {
    const BlockTridiag t = make_problem(kind, 24, 4);
    const auto u = pivots(t);
    for (index_t i = 1; i < 24; ++i) {
      const la::LuFactors prev = la::lu_factor(u[static_cast<std::size_t>(i - 1)].view());
      const Matrix phi = la::right_divide(t.lower(i).view(), prev);
      EXPECT_LT(la::norm_inf(phi.view()), 1.0) << btds::to_string(kind) << " Phi_" << i;
    }
    for (index_t i = 0; i + 1 < 24; ++i) {
      const la::LuFactors cur = la::lu_factor(u[static_cast<std::size_t>(i)].view());
      const Matrix g = la::lu_solve(cur, t.upper(i).view());
      EXPECT_LT(la::norm_inf(g.view()), 1.0) << btds::to_string(kind) << " G_" << i;
    }
  }
}

/// Pivots inherit conditioning: kappa(U_i) stays bounded (no growth with
/// i) for dominant systems — block Thomas without inter-block pivoting is
/// safe exactly because of this.
TEST(Properties, PivotConditionStaysBounded) {
  const BlockTridiag t = make_problem(ProblemKind::kPoisson2D, 64, 4);
  const auto u = pivots(t);
  double worst = 0.0;
  for (const Matrix& ui : u) {
    const double kappa = la::norm_inf(ui.view()) * la::norm_inf(la::inverse(ui.view()).view());
    worst = std::max(worst, kappa);
  }
  EXPECT_LT(worst, 100.0);
}

/// The interface matrix of a two-port merge, K = I - (P_R a)(S_L c), is a
/// small perturbation of the identity: ||K - I||_inf < 1 on dominant
/// systems, making every merge well-conditioned.
TEST(Properties, TwoPortInterfacePerturbationIsSmall) {
  const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, 16, 3);
  // Dense two-ports of [0..7] and [8..15].
  const index_t m = 3;
  const auto corner_blocks = [&](index_t l, index_t h) {
    const index_t len = h - l + 1;
    Matrix dense(len * m, len * m);
    for (index_t k = 0; k < len; ++k) {
      la::copy(t.diag(l + k).view(), dense.block(k * m, k * m, m, m));
      if (k > 0) la::copy(t.lower(l + k).view(), dense.block(k * m, (k - 1) * m, m, m));
      if (k + 1 < len) la::copy(t.upper(l + k).view(), dense.block(k * m, (k + 1) * m, m, m));
    }
    const Matrix inv = la::inverse(dense.view());
    return std::pair{la::to_matrix(inv.block(0, 0, m, m)),                    // P
                     la::to_matrix(inv.block((len - 1) * m, (len - 1) * m, m, m))};  // S
  };
  const auto [p_left, s_left] = corner_blocks(0, 7);
  const auto [p_right, s_right] = corner_blocks(8, 15);

  // K - I = -(P_R A_8)(S_L C_7).
  const Matrix pa = la::matmul(p_right.view(), t.lower(8).view());
  const Matrix sc = la::matmul(s_left.view(), t.upper(7).view());
  const Matrix prod = la::matmul(pa.view(), sc.view());
  EXPECT_LT(la::norm_inf(prod.view()), 1.0);
}

/// Corner blocks of a dominant segment's inverse decay with segment
/// length: the "forgetting" that makes long two-ports nearly decoupled
/// (Q, R -> 0) and the whole formulation immune to N.
TEST(Properties, TwoPortCrossCouplingDecaysWithLength) {
  const index_t m = 2;
  const auto cross_norm = [&](index_t len) {
    const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, len, m, /*seed=*/7);
    Matrix dense(len * m, len * m);
    for (index_t k = 0; k < len; ++k) {
      la::copy(t.diag(k).view(), dense.block(k * m, k * m, m, m));
      if (k > 0) la::copy(t.lower(k).view(), dense.block(k * m, (k - 1) * m, m, m));
      if (k + 1 < len) la::copy(t.upper(k).view(), dense.block(k * m, (k + 1) * m, m, m));
    }
    const Matrix inv = la::inverse(dense.view());
    return la::norm_inf(la::to_matrix(inv.block(0, (len - 1) * m, m, m)).view());  // Q corner
  };
  const double q4 = cross_norm(4);
  const double q8 = cross_norm(8);
  const double q16 = cross_norm(16);
  EXPECT_LT(q8, q4);
  EXPECT_LT(q16, q8);
  EXPECT_LT(q16, 1e-4);  // geometric decay has long since kicked in
}

/// Transfer matrices of dominant systems really do have spectral radius
/// > 1 — the root cause of the shooting instability. Checked via the
/// growth of repeated application to a random vector.
TEST(Properties, TransferMatricesHaveGrowingModes) {
  const BlockTridiag t = make_problem(ProblemKind::kPoisson2D, 4, 1);
  // Scalar Poisson: x_{i+1} = 4 x_i - x_{i-1}; companion matrix [[4,-1],[1,0]].
  Matrix s{{4.0, -1.0}, {1.0, 0.0}};
  Matrix v{{1.0}, {1.0}};
  double prev = la::norm_fro(v.view());
  double growth = 0.0;
  for (int k = 0; k < 20; ++k) {
    Matrix next(2, 1);
    la::gemm(1.0, s.view(), v.view(), 0.0, next.view());
    growth = la::norm_fro(next.view()) / prev;
    prev = la::norm_fro(next.view());
    v = std::move(next);
    v.scale(1.0 / prev);  // normalize to avoid overflow
    prev = 1.0;
  }
  EXPECT_NEAR(growth, 2.0 + std::sqrt(3.0), 1e-6);  // dominant root of z^2 = 4z - 1
}

}  // namespace
}  // namespace ardbt
