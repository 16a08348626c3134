#include "src/core/krylov.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::core {
namespace {

using btds::BlockTridiag;
using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::index_t;
using la::Matrix;

/// SPD test operator (Poisson line form).
BlockTridiag spd(index_t n, index_t m) {
  return make_problem(ProblemKind::kPoisson2D, n, m);
}

TEST(Pcg, ExactPreconditionerConvergesInOneIteration) {
  const index_t n = 32, m = 4, r = 3;
  const BlockTridiag sys = spd(n, m);
  const Matrix b = make_rhs(n, m, r);
  const btds::RowPartition part(n, 4);
  test::run_ranks(4, [&](mpsim::Comm& comm) {
    const auto local = btds::slice(sys, part, comm.rank());
    const auto f = ArdFactorization::factor(comm, local, part);
    const index_t lo = part.begin(comm.rank());
    const Matrix b_local = la::to_matrix(b.block(lo * m, 0, part.count(comm.rank()) * m, r));
    Matrix x_local;
    const KrylovResult res = pcg(comm, local, part, &f, b_local, x_local, 10, 1e-12);
    EXPECT_TRUE(res.converged);
    EXPECT_LE(res.iterations, 1);
    EXPECT_LT(
        btds::relative_residual_distributed(comm, local, x_local.view(), b_local.view(), part),
        1e-12);
  });
}

TEST(Pcg, UnpreconditionedCgConverges) {
  const index_t n = 24, m = 2, r = 2;
  const BlockTridiag sys = spd(n, m);
  const Matrix b = make_rhs(n, m, r);
  const btds::RowPartition part(n, 3);
  test::run_ranks(3, [&](mpsim::Comm& comm) {
    const auto local = btds::slice(sys, part, comm.rank());
    const index_t lo = part.begin(comm.rank());
    const Matrix b_local = la::to_matrix(b.block(lo * m, 0, part.count(comm.rank()) * m, r));
    Matrix x_local;
    const KrylovResult res = pcg(comm, local, part, nullptr, b_local, x_local, 500, 1e-10);
    EXPECT_TRUE(res.converged) << "final residual " << res.residual_norms.back();
    EXPECT_LT(
        btds::relative_residual_distributed(comm, local, x_local.view(), b_local.view(), part),
        1e-9);
  });
}

TEST(Pcg, FrozenCoefficientPreconditionerBeatsPlainCg) {
  // Operator: Poisson with a gentle coefficient perturbation. Preconditioner:
  // the unperturbed Poisson matrix (factored once).
  const index_t n = 64, m = 4, r = 1;
  const BlockTridiag frozen = spd(n, m);
  BlockTridiag op = spd(n, m);
  for (index_t i = 0; i < n; ++i) {
    for (index_t d = 0; d < m; ++d) {
      op.diag(i)(d, d) += 0.3 * std::sin(0.7 * static_cast<double>(i));  // stays SPD
    }
  }
  const Matrix b = make_rhs(n, m, r);
  const btds::RowPartition part(n, 4);
  int iters_pcg = 0;
  int iters_cg = 0;
  test::run_ranks(4, [&](mpsim::Comm& comm) {
    const auto local_op = btds::slice(op, part, comm.rank());
    const auto local_frozen = btds::slice(frozen, part, comm.rank());
    const auto f = ArdFactorization::factor(comm, local_frozen, part);
    const index_t lo = part.begin(comm.rank());
    const Matrix b_local = la::to_matrix(b.block(lo * m, 0, part.count(comm.rank()) * m, r));

    Matrix x1, x2;
    const KrylovResult with_pre = pcg(comm, local_op, part, &f, b_local, x1, 300, 1e-10);
    const KrylovResult without = pcg(comm, local_op, part, nullptr, b_local, x2, 300, 1e-10);
    EXPECT_TRUE(with_pre.converged);
    EXPECT_TRUE(without.converged);
    if (comm.rank() == 0) {
      iters_pcg = with_pre.iterations;
      iters_cg = without.iterations;
    }
  });
  EXPECT_LT(iters_pcg, iters_cg);
  EXPECT_LE(iters_pcg, 15);
}

TEST(Pcg, MultiColumnBatchConvergesTogether) {
  const index_t n = 20, m = 3, r = 5;
  const BlockTridiag sys = spd(n, m);
  const Matrix b = make_rhs(n, m, r);
  const btds::RowPartition part(n, 2);
  test::run_ranks(2, [&](mpsim::Comm& comm) {
    const auto local = btds::slice(sys, part, comm.rank());
    const auto f = ArdFactorization::factor(comm, local, part);
    const index_t lo = part.begin(comm.rank());
    const Matrix b_local = la::to_matrix(b.block(lo * m, 0, part.count(comm.rank()) * m, r));
    Matrix x_local;
    const KrylovResult res = pcg(comm, local, part, &f, b_local, x_local, 10, 1e-11);
    EXPECT_TRUE(res.converged);
  });
}

TEST(Pcg, ResidualHistoryIsMonitored) {
  const index_t n = 16, m = 2;
  const BlockTridiag sys = spd(n, m);
  const Matrix b = make_rhs(n, m, 1);
  const btds::RowPartition part(n, 2);
  test::run_ranks(2, [&](mpsim::Comm& comm) {
    const auto local = btds::slice(sys, part, comm.rank());
    const index_t lo = part.begin(comm.rank());
    const Matrix b_local = la::to_matrix(b.block(lo * m, 0, part.count(comm.rank()) * m, 1));
    Matrix x_local;
    const KrylovResult res = pcg(comm, local, part, nullptr, b_local, x_local, 200, 1e-10);
    ASSERT_GE(res.residual_norms.size(), 2u);
    EXPECT_LT(res.residual_norms.back(), res.residual_norms.front());
  });
}

}  // namespace
}  // namespace ardbt::core
