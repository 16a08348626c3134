#include "bench/ablation/shooting.hpp"

#include <gtest/gtest.h>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/fault/status.hpp"

namespace ardbt::ablation {
namespace {

using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;

TEST(Shooting, SingularBlocksThrowTypedPivotErrors) {
  // A singular super-diagonal block cannot be solved against; a single
  // zero row leaves the boundary operator S11 = -D_0 singular.
  auto sys = make_problem(ProblemKind::kDiagDominant, 3, 2);
  sys.upper(1) = la::Matrix(2, 2);
  const auto b = make_rhs(3, 2, 1);
  EXPECT_THROW(shooting_solve(sys, b), fault::SingularPivotError);
  btds::BlockTridiag one(1, 1);
  EXPECT_THROW(shooting_solve(one, make_rhs(1, 1, 1)), fault::SingularPivotError);
}

TEST(Shooting, RejectsAWrongRowCount) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 5, 2);
  for (const la::index_t rows : {la::index_t{9}, la::index_t{11}}) {
    EXPECT_THROW(shooting_solve(sys, la::Matrix(rows, 2)), fault::ShapeMismatchError)
        << "rows=" << rows;
  }
}

TEST(Shooting, ExactForTinySystems) {
  for (ProblemKind kind : {ProblemKind::kDiagDominant, ProblemKind::kPoisson2D}) {
    const auto sys = make_problem(kind, 5, 2);
    const auto b = make_rhs(5, 2, 3);
    const auto x = shooting_solve(sys, b);
    EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10) << btds::to_string(kind);
  }
}

TEST(Shooting, InstabilityGrowsGeometricallyWithN) {
  // The point of keeping this solver: interior recovery amplifies the
  // boundary-solve rounding by lambda^i (lambda ~ 3.7 for scalar Poisson).
  const auto residual_at = [&](la::index_t n) {
    const auto sys = make_problem(ProblemKind::kPoisson2D, n, 1);
    const auto b = make_rhs(n, 1, 1);
    return btds::relative_residual(sys, shooting_solve(sys, b), b);
  };
  const double r10 = residual_at(10);
  const double r40 = residual_at(40);
  const double r80 = residual_at(80);
  EXPECT_LT(r10, 1e-9);
  EXPECT_GT(r80, 1e-3);        // effectively garbage
  EXPECT_GT(r80, r40 * 10.0);  // and still growing
}

TEST(Shooting, HandlesMultipleRhsConsistently) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 6, 3);
  const auto b = make_rhs(6, 3, 4);
  const auto x_all = shooting_solve(sys, b);
  // Column 2 solved alone must match column 2 of the batched solve.
  la::Matrix b2(b.rows(), 1);
  for (la::index_t i = 0; i < b.rows(); ++i) b2(i, 0) = b(i, 2);
  const auto x2 = shooting_solve(sys, b2);
  for (la::index_t i = 0; i < b.rows(); ++i) EXPECT_NEAR(x2(i, 0), x_all(i, 2), 1e-9);
}

}  // namespace
}  // namespace ardbt::ablation
