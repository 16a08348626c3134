#include "src/core/pcr.hpp"

#include <gtest/gtest.h>

#include "src/btds/distributed.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/btds/thomas.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::core {
namespace {

using btds::BlockTridiag;
using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::Matrix;

Matrix pcr_solve(const BlockTridiag& sys, const Matrix& b, int p) {
  Matrix x(b.rows(), b.cols());
  const btds::RowPartition part(sys.num_blocks(), p);
  test::run_ranks(p, [&](mpsim::Comm& comm) {
    const auto f = PcrFactorization::factor(comm, sys, part);
    f.solve(comm, b, x);
  });
  return x;
}

TEST(Pcr, ThrowsTypedErrorWhenMoreRanksThanRows) {
  const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, 2, 2);
  const btds::RowPartition part(2, 3);
  EXPECT_THROW(test::run_ranks(3, [&](mpsim::Comm& comm) {
                 (void)PcrFactorization::factor(comm, sys, part);
               }),
               fault::InvalidArgumentError);
}

TEST(Pcr, FactorsFromSlicesAndRejectsSliceWithoutTheRanksRows) {
  // Each rank's own slice gives the shared system's bits; rank 0's slice
  // on every rank fails typed on the ranks that do not hold their rows.
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 12, 2);
  const Matrix b = make_rhs(12, 2, 3);
  const btds::RowPartition part(12, 3);
  Matrix x(b.rows(), b.cols());
  test::run_ranks(3, [&](mpsim::Comm& comm) {
    const auto f = PcrFactorization::factor(comm, btds::slice(sys, part, comm.rank()), part);
    f.solve(comm, b, x);
  });
  EXPECT_TRUE(x == pcr_solve(sys, b, 3));
  const BlockTridiag first = btds::slice(sys, part, 0);
  EXPECT_THROW(test::run_ranks(3, [&](mpsim::Comm& comm) {
                 (void)PcrFactorization::factor(comm, first, part);
               }),
               fault::InvalidArgumentError);
}

class PcrSweep : public ::testing::TestWithParam<
                     std::tuple<ProblemKind, la::index_t, la::index_t, int, la::index_t>> {};

TEST_P(PcrSweep, ResidualIsSmall) {
  const auto [kind, n, m, p, r] = GetParam();
  if (n < p) GTEST_SKIP() << "partition requires N >= P";
  const BlockTridiag sys = make_problem(kind, n, m);
  const Matrix b = make_rhs(n, m, r);
  const Matrix x = pcr_solve(sys, b, p);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-9)
      << btds::to_string(kind) << " N=" << n << " M=" << m << " P=" << p << " R=" << r;
}

std::string pcr_name(const ::testing::TestParamInfo<PcrSweep::ParamType>& info) {
  return std::string(btds::to_string(std::get<0>(info.param))) + "_N" +
         std::to_string(std::get<1>(info.param)) + "_M" + std::to_string(std::get<2>(info.param)) +
         "_P" + std::to_string(std::get<3>(info.param)) + "_R" +
         std::to_string(std::get<4>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PcrSweep,
    ::testing::Combine(::testing::Values(ProblemKind::kDiagDominant, ProblemKind::kPoisson2D,
                                         ProblemKind::kToeplitz),
                       ::testing::Values<la::index_t>(1, 2, 3, 17, 32, 65),
                       ::testing::Values<la::index_t>(1, 4),
                       ::testing::Values(1, 2, 3, 4, 7), ::testing::Values<la::index_t>(1, 3)),
    pcr_name);

TEST(Pcr, MatchesThomasExactly) {
  const BlockTridiag sys = make_problem(ProblemKind::kConvectionDiffusion, 40, 3);
  const Matrix b = make_rhs(40, 3, 2);
  const Matrix x_pcr = pcr_solve(sys, b, 4);
  const Matrix x_ref = btds::thomas_solve(sys, b);
  for (la::index_t i = 0; i < b.rows(); ++i) {
    for (la::index_t j = 0; j < b.cols(); ++j) EXPECT_NEAR(x_pcr(i, j), x_ref(i, j), 1e-9);
  }
}

TEST(Pcr, StableOnPoissonAtLargeN) {
  // PCR, like the two-port solver, has no transfer-matrix instability.
  const BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, 1024, 4);
  const Matrix b = make_rhs(1024, 4, 2);
  const Matrix x = pcr_solve(sys, b, 4);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10);
}

TEST(Pcr, FactorReusedAcrossSolves) {
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 24, 3);
  const Matrix b1 = make_rhs(24, 3, 2, 1);
  const Matrix b2 = make_rhs(24, 3, 5, 2);
  Matrix x1(b1.rows(), b1.cols());
  Matrix x2(b2.rows(), b2.cols());
  const btds::RowPartition part(24, 3);
  test::run_ranks(3, [&](mpsim::Comm& comm) {
    const auto f = PcrFactorization::factor(comm, sys, part);
    EXPECT_GT(f.storage_bytes(), 0u);
    EXPECT_EQ(f.num_levels(), 5);  // ceil(log2 24)
    f.solve(comm, b1, x1);
    f.solve(comm, b2, x2);
  });
  EXPECT_LT(btds::relative_residual(sys, x1, b1), 1e-10);
  EXPECT_LT(btds::relative_residual(sys, x2, b2), 1e-10);
}

TEST(Pcr, SolveRejectsWrongShapes) {
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 8, 2);
  const btds::RowPartition part(8, 2);
  const Matrix b = make_rhs(8, 2, 3);
  const struct {
    Matrix b, x;
  } bad[] = {{Matrix(15, 3), Matrix(15, 3)}, {b, Matrix(14, 3)}, {b, Matrix(16, 2)}};
  for (const auto& c : bad) {
    Matrix x = c.x;
    EXPECT_THROW(test::run_ranks(2, [&](mpsim::Comm& comm) {
                   const auto f = PcrFactorization::factor(comm, sys, part);
                   f.solve(comm, c.b, x);
                 }),
                 fault::ShapeMismatchError)
        << c.b.rows() << "x" << c.b.cols() << " into " << x.rows() << "x" << x.cols();
  }
}

TEST(Pcr, FlopFormulasCarryLogNFactor) {
  const double f1 = PcrFactorization::factor_flops(1024, 8, 4);
  const double f2 = PcrFactorization::factor_flops(2048, 8, 4);
  // Doubling N doubles rows AND adds a level: ratio > 2.
  EXPECT_GT(f2 / f1, 2.05);
  EXPECT_GT(PcrFactorization::solve_flops(1024, 8, 16, 4),
            PcrFactorization::solve_flops(1024, 8, 8, 4));
}

TEST(Pcr, SingleRowSystem) {
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, 1, 3);
  const Matrix b = make_rhs(1, 3, 2);
  const Matrix x = pcr_solve(sys, b, 1);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12);
}

TEST(Pcr, FlopCounterWithinModelFactor) {
  const la::index_t n = 64, m = 8, r = 8;
  const int p = 4;
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const Matrix b = make_rhs(n, m, r);
  Matrix x(b.rows(), b.cols());
  const btds::RowPartition part(n, p);
  const auto report = test::run_ranks(p, [&](mpsim::Comm& comm) {
    const auto f = PcrFactorization::factor(comm, sys, part);
    f.solve(comm, b, x);
  });
  const double measured = report.totals().flops_charged;
  const double model = p * (PcrFactorization::factor_flops(n, m, p) +
                            PcrFactorization::solve_flops(n, m, r, p));
  EXPECT_GT(measured, 0.4 * model);
  EXPECT_LT(measured, 1.6 * model);
}

}  // namespace
}  // namespace ardbt::core
