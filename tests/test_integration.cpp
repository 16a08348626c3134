// Cross-module integration tests: full application-style flows exercising
// generators + distribution + factorization + repeated solves + refinement
// together, with physics-level validation where possible.

#include <gtest/gtest.h>

#include <cmath>

#include "src/btds/cyclic_reduction.hpp"
#include "src/btds/distributed.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/pcr.hpp"
#include "src/core/refine.hpp"
#include "src/core/solver.hpp"
#include "src/la/gemm.hpp"
#include "src/mpsim/collectives.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt {
namespace {

using btds::BlockTridiag;
using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::index_t;
using la::Matrix;

/// Every solver in the library must agree with every other on the same
/// well-conditioned system (to a tolerance reflecting its tier).
TEST(Integration, AllSolversAgree) {
  const index_t n = 24, m = 3, r = 2;
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const Matrix b = make_rhs(n, m, r);
  const Matrix x_ref = btds::thomas_solve(sys, b);

  const auto check = [&](const Matrix& x, double tol, const char* name) {
    double mx = 0.0;
    for (index_t i = 0; i < x.rows(); ++i) {
      for (index_t j = 0; j < r; ++j) mx = std::max(mx, std::abs(x(i, j) - x_ref(i, j)));
    }
    EXPECT_LT(mx, tol) << name;
  };
  check(btds::cyclic_reduction_solve(sys, b), 1e-10, "cyclic reduction");
  check(core::solve(core::Method::kArd, sys, b, 3).x, 1e-10, "ard");
  check(core::solve(core::Method::kRdBatched, sys, b, 3).x, 1e-10, "rd");
  check(core::solve(core::Method::kPcr, sys, b, 3).x, 1e-10, "pcr");
}

/// Implicit Euler heat stepping with factor-reuse: the total heat of a
/// Dirichlet problem must decay monotonically, and each step's residual
/// must be at machine precision.
TEST(Integration, ImplicitEulerHeatStepping) {
  const index_t n = 32, m = 8;
  const double lambda = 0.5;
  const int steps = 20;
  const int p = 4;

  // (I + lambda A) u_next = u.
  BlockTridiag implicit(n, m);
  for (index_t i = 0; i < n; ++i) {
    for (index_t rr = 0; rr < m; ++rr) {
      implicit.diag(i)(rr, rr) = 1.0 + 4.0 * lambda;
      if (rr > 0) implicit.diag(i)(rr, rr - 1) = -lambda;
      if (rr + 1 < m) implicit.diag(i)(rr, rr + 1) = -lambda;
      if (i > 0) implicit.lower(i)(rr, rr) = -lambda;
      if (i + 1 < n) implicit.upper(i)(rr, rr) = -lambda;
    }
  }

  Matrix u(n * m, 1);
  u(n / 2 * m + m / 2, 0) = 1.0;  // hot spot
  Matrix u_next(n * m, 1);
  std::vector<double> heat;
  const btds::RowPartition part(n, p);

  test::run_ranks(p, [&](mpsim::Comm& comm) {
    const auto f = core::ArdFactorization::factor(comm, implicit, part);
    for (int step = 0; step < steps; ++step) {
      f.solve(comm, u, u_next);
      mpsim::barrier(comm);
      if (comm.rank() == 0) {
        EXPECT_LT(btds::relative_residual(implicit, u_next, u), 1e-13) << "step " << step;
        double total = 0.0;
        for (index_t i = 0; i < n * m; ++i) total += u_next(i, 0);
        heat.push_back(total);
        std::swap(u, u_next);
      }
      mpsim::barrier(comm);
    }
  });

  ASSERT_EQ(heat.size(), static_cast<std::size_t>(steps));
  for (std::size_t s = 1; s < heat.size(); ++s) {
    EXPECT_LT(heat[s], heat[s - 1]) << "heat must decay (Dirichlet)";
    EXPECT_GT(heat[s], 0.0);
  }
}

/// Distributed path + refinement together, on the ill-conditioned dial.
TEST(Integration, DistributedSolveWithRefinement) {
  const index_t n = 48, m = 4, r = 3;
  const int p = 4;
  const BlockTridiag global = make_problem(ProblemKind::kIllConditioned, n, m);
  const Matrix b = make_rhs(n, m, r);
  Matrix x(b.rows(), b.cols());
  const btds::RowPartition part(n, p);

  test::run_ranks(p, [&](mpsim::Comm& comm) {
    const BlockTridiag local =
        btds::scatter(comm, comm.rank() == 0 ? &global : nullptr, n, m, part, 0);
    const auto f = core::ArdFactorization::factor(comm, local, part);
    // Residuals apply the slice with a halo exchange; b and x are shared
    // in-process, so each rank passes its row views of them.
    const index_t lo = part.begin(comm.rank()) * m;
    const index_t rows = part.count(comm.rank()) * m;
    core::solve_refined(comm, f, local, part, b.block(lo, 0, rows, r), x.block(lo, 0, rows, r),
                        /*max_steps=*/2);
  });
  EXPECT_LT(btds::relative_residual(global, x, b), 1e-13);
}

/// Two independent factorizations of different systems coexist in one
/// engine run (tag streams must not interfere).
TEST(Integration, TwoFactorizationsCoexist) {
  const index_t n = 20, m = 2;
  const BlockTridiag sys_a = make_problem(ProblemKind::kDiagDominant, n, m, /*seed=*/1);
  const BlockTridiag sys_b = make_problem(ProblemKind::kToeplitz, n, m, /*seed=*/2);
  const Matrix rhs = make_rhs(n, m, 2);
  Matrix xa(rhs.rows(), rhs.cols());
  Matrix xb(rhs.rows(), rhs.cols());
  const btds::RowPartition part(n, 3);

  test::run_ranks(3, [&](mpsim::Comm& comm) {
    const auto fa = core::ArdFactorization::factor(comm, sys_a, part);
    const auto fb = core::ArdFactorization::factor(comm, sys_b, part);
    // Interleave solves.
    fa.solve(comm, rhs, xa);
    fb.solve(comm, rhs, xb);
    fa.solve(comm, rhs, xa);
  });
  EXPECT_LT(btds::relative_residual(sys_a, xa, rhs), 1e-11);
  EXPECT_LT(btds::relative_residual(sys_b, xb, rhs), 1e-11);
}

/// PCR and ARD factorization objects used side by side on the same system.
TEST(Integration, PcrAndArdSideBySide) {
  const index_t n = 30, m = 3;
  const BlockTridiag sys = make_problem(ProblemKind::kConvectionDiffusion, n, m);
  const Matrix b = make_rhs(n, m, 4);
  Matrix x_ard(b.rows(), b.cols());
  Matrix x_pcr(b.rows(), b.cols());
  const btds::RowPartition part(n, 2);
  test::run_ranks(2, [&](mpsim::Comm& comm) {
    const auto fa = core::ArdFactorization::factor(comm, sys, part);
    const auto fp = core::PcrFactorization::factor(comm, sys, part);
    fa.solve(comm, b, x_ard);
    fp.solve(comm, b, x_pcr);
  });
  for (index_t i = 0; i < b.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) EXPECT_NEAR(x_ard(i, j), x_pcr(i, j), 1e-10);
  }
}

}  // namespace
}  // namespace ardbt
