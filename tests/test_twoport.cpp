#include "src/core/twoport.hpp"

#include <gtest/gtest.h>

#include "src/btds/generators.hpp"
#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::core {
namespace {

using btds::BlockTridiag;
using btds::ProblemKind;

/// Exact two-port of rows [l..h] (inclusive) by dense inversion.
TwoPort dense_twoport(const BlockTridiag& sys, index_t l, index_t h) {
  const index_t m = sys.block_size();
  const index_t len = h - l + 1;
  Matrix dense(len * m, len * m);
  for (index_t k = 0; k < len; ++k) {
    la::copy(sys.diag(l + k).view(), dense.block(k * m, k * m, m, m));
    if (k > 0) la::copy(sys.lower(l + k).view(), dense.block(k * m, (k - 1) * m, m, m));
    if (k + 1 < len) la::copy(sys.upper(l + k).view(), dense.block(k * m, (k + 1) * m, m, m));
  }
  const Matrix inv = la::inverse(dense.view());
  TwoPort tp;
  tp.P = la::to_matrix(inv.block(0, 0, m, m));
  tp.Q = la::to_matrix(inv.block(0, (len - 1) * m, m, m));
  tp.R = la::to_matrix(inv.block((len - 1) * m, 0, m, m));
  tp.S = la::to_matrix(inv.block((len - 1) * m, (len - 1) * m, m, m));
  tp.a_first = (l > 0) ? sys.lower(l) : Matrix(m, m);
  tp.c_last = (h + 1 < sys.num_blocks()) ? sys.upper(h) : Matrix(m, m);
  return tp;
}

/// Exact vector part of rows [l..h]: first/last blocks of T_seg^{-1} b.
TwoPortVec dense_twoport_vec(const BlockTridiag& sys, const Matrix& b, index_t l, index_t h) {
  const index_t m = sys.block_size();
  const index_t len = h - l + 1;
  Matrix dense(len * m, len * m);
  for (index_t k = 0; k < len; ++k) {
    la::copy(sys.diag(l + k).view(), dense.block(k * m, k * m, m, m));
    if (k > 0) la::copy(sys.lower(l + k).view(), dense.block(k * m, (k - 1) * m, m, m));
    if (k + 1 < len) la::copy(sys.upper(l + k).view(), dense.block(k * m, (k + 1) * m, m, m));
  }
  Matrix bseg = la::to_matrix(b.block(l * m, 0, len * m, b.cols()));
  const la::LuFactors f = la::lu_factor(dense.view());
  la::lu_solve_inplace(f, bseg.view());
  return TwoPortVec{.p = la::to_matrix(bseg.block(0, 0, m, b.cols())),
                    .q = la::to_matrix(bseg.block((len - 1) * m, 0, m, b.cols()))};
}

double tp_diff(const TwoPort& a, const TwoPort& b) {
  auto d = [](const Matrix& x, const Matrix& y) {
    Matrix t = x;
    la::matrix_axpy(-1.0, y.view(), t.view());
    return la::norm_max(t.view());
  };
  return std::max({d(a.P, b.P), d(a.Q, b.Q), d(a.R, b.R), d(a.S, b.S)});
}

double vec_diff(const TwoPortVec& a, const TwoPortVec& b) {
  Matrix dp = a.p;
  la::matrix_axpy(-1.0, b.p.view(), dp.view());
  Matrix dq = a.q;
  la::matrix_axpy(-1.0, b.q.view(), dq.view());
  return std::max(la::norm_max(dp.view()), la::norm_max(dq.view()));
}

TEST(TwoPort, MergeMatchesDenseSchurComplement) {
  for (ProblemKind kind : {ProblemKind::kDiagDominant, ProblemKind::kPoisson2D}) {
    const BlockTridiag sys = btds::make_problem(kind, 9, 3);
    const Matrix b = btds::make_rhs(9, 3, 2);
    test::run_ranks(1, [&](mpsim::Comm& comm) {
      // Split [2..7] at several interface positions; all must reproduce
      // the dense two-port of the union.
      const TwoPort whole = dense_twoport(sys, 2, 7);
      const TwoPortVec whole_v = dense_twoport_vec(sys, b, 2, 7);
      for (index_t split : {2, 4, 6}) {
        const TwoPort left = dense_twoport(sys, 2, split);
        const TwoPort right = dense_twoport(sys, split + 1, 7);
        TwoPortCache cache;
        const TwoPort merged = merge_twoport(left, right, cache, comm);
        EXPECT_LT(tp_diff(merged, whole), 1e-10) << btds::to_string(kind) << " split " << split;

        const TwoPortVec lv = dense_twoport_vec(sys, b, 2, split);
        const TwoPortVec rv = dense_twoport_vec(sys, b, split + 1, 7);
        const TwoPortVec mv = merge_twoport_vec(cache, lv, rv, comm);
        EXPECT_LT(vec_diff(mv, whole_v), 1e-10) << btds::to_string(kind) << " split " << split;
      }
    });
  }
}

TEST(TwoPort, MergeIsAssociative) {
  const BlockTridiag sys = btds::make_problem(ProblemKind::kDiagDominant, 12, 2, /*seed=*/3);
  const Matrix b = btds::make_rhs(12, 2, 3);
  test::run_ranks(1, [&](mpsim::Comm& comm) {
    // Three adjacent segments of unequal length.
    const TwoPort s1 = dense_twoport(sys, 1, 3);
    const TwoPort s2 = dense_twoport(sys, 4, 4);
    const TwoPort s3 = dense_twoport(sys, 5, 9);
    const TwoPortVec v1 = dense_twoport_vec(sys, b, 1, 3);
    const TwoPortVec v2 = dense_twoport_vec(sys, b, 4, 4);
    const TwoPortVec v3 = dense_twoport_vec(sys, b, 5, 9);

    TwoPortCache c12, c12_3, c23, c1_23;
    const TwoPort left_first = merge_twoport(merge_twoport(s1, s2, c12, comm), s3, c12_3, comm);
    const TwoPort right_first = merge_twoport(s1, merge_twoport(s2, s3, c23, comm), c1_23, comm);
    EXPECT_LT(tp_diff(left_first, right_first), 1e-11);

    const TwoPortVec lv =
        merge_twoport_vec(c12_3, merge_twoport_vec(c12, v1, v2, comm), v3, comm);
    const TwoPortVec rv =
        merge_twoport_vec(c1_23, v1, merge_twoport_vec(c23, v2, v3, comm), comm);
    EXPECT_LT(vec_diff(lv, rv), 1e-11);
  });
}

TEST(TwoPort, SerdeRoundTrip) {
  const BlockTridiag sys = btds::make_problem(ProblemKind::kToeplitz, 6, 3);
  const TwoPort tp = dense_twoport(sys, 1, 4);
  const TwoPortOp::Context ctx{3};
  const auto bytes = TwoPortOp::ser_mat(ctx, tp);
  const TwoPort back = TwoPortOp::des_mat(ctx, bytes);
  EXPECT_LT(tp_diff(tp, back), 0.0 + 1e-300);
  EXPECT_TRUE(tp.a_first == back.a_first);
  EXPECT_TRUE(tp.c_last == back.c_last);

  const Matrix b = btds::make_rhs(6, 3, 4);
  const TwoPortVec v = dense_twoport_vec(sys, b, 1, 4);
  const auto vbytes = TwoPortOp::ser_vec(ctx, v);
  const TwoPortVec vback = TwoPortOp::des_vec(ctx, vbytes);
  EXPECT_EQ(vback.p.cols(), 4);
  EXPECT_LT(vec_diff(v, vback), 1e-300);
}

TEST(TwoPort, SingleRowTwoPortIsInverseDiagonal) {
  const BlockTridiag sys = btds::make_problem(ProblemKind::kDiagDominant, 3, 2);
  const TwoPort tp = dense_twoport(sys, 1, 1);
  const Matrix inv = la::inverse(sys.diag(1).view());
  Matrix d = tp.P;
  la::matrix_axpy(-1.0, inv.view(), d.view());
  EXPECT_LT(la::norm_max(d.view()), 1e-12);
  EXPECT_LT(tp_diff(tp, TwoPort{inv, inv, inv, inv, tp.a_first, tp.c_last}), 1e-12);
}

TEST(TwoPort, ReversedOpSwapsOperands) {
  const BlockTridiag sys = btds::make_problem(ProblemKind::kDiagDominant, 8, 2);
  test::run_ranks(1, [&](mpsim::Comm& comm) {
    const TwoPort lo = dense_twoport(sys, 1, 3);   // lower rows
    const TwoPort hi = dense_twoport(sys, 4, 6);   // higher rows
    TwoPortCache c_fwd, c_rev;
    const TwoPort merged_fwd =
        TwoPortOp::merge_mat(TwoPortOp::Context{2}, lo, hi, c_fwd, comm);
    // In a backward scan the "left" operand covers higher rows.
    const TwoPort merged_rev =
        TwoPortOpReversed::merge_mat(TwoPortOp::Context{2}, hi, lo, c_rev, comm);
    EXPECT_LT(tp_diff(merged_fwd, merged_rev), 1e-300);
  });
}

}  // namespace
}  // namespace ardbt::core
