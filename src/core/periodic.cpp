#include "src/core/periodic.hpp"

#include "src/btds/spmv.hpp"
#include "src/fault/status.hpp"
#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/mpsim/collectives.hpp"

namespace ardbt::core {
namespace {

using la::index_t;
using la::Matrix;

/// Broadcast the first block row (from the first rank) and the last block
/// row (from the last rank) of a row-distributed local slice; returns the
/// stacked 2M x R matrix [y_first; y_last] on every rank.
Matrix gather_edge_rows(mpsim::Comm& comm, const Matrix& local, index_t m) {
  const index_t r = local.cols();
  Matrix edges(2 * m, r);
  // First block row lives on rank 0.
  if (comm.rank() == 0) la::copy(local.block(0, 0, m, r), edges.block(0, 0, m, r));
  {
    la::MatrixView first = edges.block(0, 0, m, r);
    // bcast works on contiguous spans; the block view is contiguous in
    // rows but strided against `edges`, so stage through a buffer.
    Matrix buf = la::to_matrix(first);
    mpsim::bcast(comm, buf.data(), /*root=*/0);
    la::copy(buf.view(), first);
  }
  const int last = comm.size() - 1;
  if (comm.rank() == last) {
    la::copy(local.block(local.rows() - m, 0, m, r), edges.block(m, 0, m, r));
  }
  {
    la::MatrixView second = edges.block(m, 0, m, r);
    Matrix buf = la::to_matrix(second);
    mpsim::bcast(comm, buf.data(), /*root=*/last);
    la::copy(buf.view(), second);
  }
  return edges;
}

}  // namespace

PeriodicArdFactorization PeriodicArdFactorization::factor(
    mpsim::Comm& comm, const btds::BlockTridiag& sys, const la::Matrix& corner_lower,
    const la::Matrix& corner_upper, const btds::RowPartition& part, const ArdOptions& opts) {
  const index_t n = sys.num_blocks();
  const index_t m = sys.block_size();
  if (n < 3) {
    throw fault::InvalidArgumentError("core::PeriodicArdFactorization::factor", "N >= 3 required");
  }
  for (const Matrix* corner : {&corner_lower, &corner_upper}) {
    if (corner->rows() != m || corner->cols() != m) {
      throw fault::ShapeMismatchError("core::PeriodicArdFactorization::factor",
                                      "corner is M x M", corner->rows() * corner->cols(), m * m);
    }
  }

  PeriodicArdFactorization f;
  f.rank_ = comm.rank();
  f.nranks_ = comm.size();
  f.n_ = n;
  f.m_ = m;
  f.lo_ = part.begin(comm.rank());
  f.hi_ = part.end(comm.rank());
  f.base_ = ArdFactorization::factor(comm, sys, part, opts);

  // U = E W: row-block 0 = [0 | B_0], row-block N-1 = [C_N | 0]; build
  // this rank's rows and solve T X = U for the local slice of T^{-1} U.
  const index_t nloc = f.hi_ - f.lo_;
  f.tu_local_ = Matrix(nloc * m, 2 * m);
  if (f.lo_ == 0) la::copy(corner_lower.view(), f.tu_local_.block(0, m, m, m));
  if (f.hi_ == n) la::copy(corner_upper.view(), f.tu_local_.block((nloc - 1) * m, 0, m, m));
  f.base_.solve_inplace(comm, f.tu_local_.view());

  // Capacitance K = I + F^T T^{-1} U (2M x 2M), same on every rank.
  const Matrix edges = gather_edge_rows(comm, f.tu_local_, m);
  Matrix k = Matrix::identity(2 * m);
  la::matrix_axpy(1.0, edges.view(), k.view());
  f.cap_lu_ = la::lu_factor(std::move(k));
  comm.charge_flops(la::lu_factor_flops(2 * m));
  if (!f.cap_lu_.ok()) {
    throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, "core::periodic_capacitance", -1,
                                    f.cap_lu_.info - 1, f.cap_lu_.growth);
  }
  return f;
}

void PeriodicArdFactorization::solve(mpsim::Comm& comm, const la::Matrix& b,
                                     la::Matrix& x) const {
  const index_t m = m_;
  const index_t nloc = hi_ - lo_;
  const index_t r = b.cols();
  btds::require_rhs(n_ * m, b, x, "core::PeriodicArdFactorization::solve");

  // y = T^{-1} b (local slice).
  Matrix y(nloc * m, r);
  la::copy(b.block(lo_ * m, 0, nloc * m, r), y.view());
  base_.solve_inplace(comm, y.view());

  // z = F^T y, w = K^{-1} z (small; every rank solves its own copy).
  Matrix z = gather_edge_rows(comm, y, m);
  la::lu_solve_inplace(cap_lu_, z.view());
  comm.charge_flops(la::lu_solve_flops(2 * m, r));

  // x = y - (T^{-1} U) w on this rank's rows.
  la::gemm(-1.0, tu_local_.view(), z.view(), 1.0, y.view());
  comm.charge_flops(la::gemm_flops(nloc * m, r, 2 * m));
  la::copy(y.view(), x.block(lo_ * m, 0, nloc * m, r));
}

la::Matrix apply_periodic(const btds::BlockTridiag& sys, const la::Matrix& corner_lower,
                          const la::Matrix& corner_upper, const la::Matrix& x) {
  const index_t n = sys.num_blocks();
  const index_t m = sys.block_size();
  Matrix b = btds::apply(sys, x);
  la::MatrixView first = b.block(0, 0, m, x.cols());
  la::gemm(1.0, corner_lower.view(), x.block((n - 1) * m, 0, m, x.cols()), 1.0, first);
  la::MatrixView last = b.block((n - 1) * m, 0, m, x.cols());
  la::gemm(1.0, corner_upper.view(), x.block(0, 0, m, x.cols()), 1.0, last);
  return b;
}

}  // namespace ardbt::core
