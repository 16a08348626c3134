#include "src/core/refine.hpp"

#include <cassert>
#include <cmath>

#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/btds/halo.hpp"
#include "src/la/random.hpp"
#include "src/mpsim/collectives.hpp"

namespace ardbt::core {
namespace {

using la::index_t;
using la::Matrix;

/// out_rows := (T x)[lo..hi) — this rank's rows of the operator applied to
/// the (fully populated) global x.
void apply_local(const btds::BlockTridiag& sys, const Matrix& x, index_t lo, index_t hi,
                 Matrix& out, mpsim::Comm& comm) {
  const index_t m = sys.block_size();
  const index_t r = x.cols();
  for (index_t i = lo; i < hi; ++i) {
    la::MatrixView oi = out.block((i - lo) * m, 0, m, r);
    la::gemm(1.0, sys.diag(i).view(), btds::block_row(x, i, m), 0.0, oi);
    comm.charge_flops(la::gemm_flops(m, r, m));
    if (i > 0) {
      la::gemm(1.0, sys.lower(i).view(), btds::block_row(x, i - 1, m), 1.0, oi);
      comm.charge_flops(la::gemm_flops(m, r, m));
    }
    if (i + 1 < sys.num_blocks()) {
      la::gemm(1.0, sys.upper(i).view(), btds::block_row(x, i + 1, m), 1.0, oi);
      comm.charge_flops(la::gemm_flops(m, r, m));
    }
  }
}

/// Frobenius norm over all ranks of a quantity whose local part is given
/// by `local_sumsq` (allreduce of one double).
double global_norm(mpsim::Comm& comm, double local_sumsq) {
  double v[1] = {local_sumsq};
  mpsim::allreduce_sum(comm, v);
  return std::sqrt(v[0]);
}

double sumsq(la::ConstMatrixView v) {
  double s = 0.0;
  for (index_t i = 0; i < v.rows(); ++i) {
    for (double x : v.row(i)) s += x * x;
  }
  return s;
}

}  // namespace

RefineResult solve_refined(mpsim::Comm& comm, const ArdFactorization& f,
                           const btds::BlockTridiag& sys, const btds::RowPartition& part,
                           const la::Matrix& b, la::Matrix& x, int max_steps, double tol) {
  const index_t m = sys.block_size();
  const index_t lo = part.begin(comm.rank());
  const index_t hi = part.end(comm.rank());
  const index_t nloc = hi - lo;
  const index_t r = b.cols();

  RefineResult result;
  const double b_norm =
      global_norm(comm, sumsq(b.block(lo * m, 0, nloc * m, r)));

  f.solve(comm, b, x);
  mpsim::barrier(comm);  // every rank's rows of x are ready for the apply

  // This rank's rows only: T x, and the residual, which solve_inplace
  // turns into the correction where it lies.
  Matrix tx_local(nloc * m, r);
  Matrix res_local(nloc * m, r);

  for (int step = 0; step <= max_steps; ++step) {
    apply_local(sys, x, lo, hi, tx_local, comm);
    la::copy(b.block(lo * m, 0, nloc * m, r), res_local.view());
    la::matrix_axpy(-1.0, tx_local.view(), res_local.view());
    const double res_norm = global_norm(comm, sumsq(res_local.view()));
    result.residual_norms.push_back(res_norm);
    if (step == max_steps || res_norm <= tol * b_norm) break;

    f.solve_inplace(comm, res_local.view());
    la::matrix_axpy(1.0, res_local.view(), x.block(lo * m, 0, nloc * m, r));
    mpsim::barrier(comm);  // updated x visible before the next apply
    ++result.steps;
  }
  return result;
}

RefineResult solve_refined_local(mpsim::Comm& comm, const ArdFactorization& f,
                                 const btds::LocalBlockTridiag& sys,
                                 const btds::RowPartition& part, const la::Matrix& b_local,
                                 la::Matrix& x_local, int max_steps, double tol) {
  RefineResult result;
  const double b_norm = global_norm(comm, sumsq(b_local.view()));

  x_local = b_local;
  f.solve_inplace(comm, x_local.view());

  for (int step = 0; step <= max_steps; ++step) {
    Matrix residual = btds::apply_distributed(comm, sys, x_local, part);
    la::matrix_scal(-1.0, residual.view());
    la::matrix_axpy(1.0, b_local.view(), residual.view());
    const double res_norm = global_norm(comm, sumsq(residual.view()));
    result.residual_norms.push_back(res_norm);
    if (step == max_steps || res_norm <= tol * b_norm) break;

    f.solve_inplace(comm, residual.view());  // the residual becomes the correction
    la::matrix_axpy(1.0, residual.view(), x_local.view());
    ++result.steps;
  }
  return result;
}

double condition_estimate(mpsim::Comm& comm, const ArdFactorization& f,
                          const btds::BlockTridiag& sys, const btds::RowPartition& part,
                          int iters, std::uint64_t seed) {
  const index_t m = sys.block_size();
  const index_t lo = part.begin(comm.rank());
  const index_t hi = part.end(comm.rank());
  const index_t nloc = hi - lo;

  // ||T||_inf from local row sums.
  double local_max[1] = {0.0};
  for (index_t i = lo; i < hi; ++i) {
    for (index_t row = 0; row < m; ++row) {
      double s = 0.0;
      for (index_t c = 0; c < m; ++c) {
        s += std::abs(sys.diag(i)(row, c));
        if (i > 0) s += std::abs(sys.lower(i)(row, c));
        if (i + 1 < sys.num_blocks()) s += std::abs(sys.upper(i)(row, c));
      }
      local_max[0] = std::max(local_max[0], s);
    }
  }
  mpsim::allreduce_max(comm, local_max);
  const double t_norm = local_max[0];

  // Power iteration on T^{-1}: each rank fills its rows of v by global row
  // index, so the global vector is well defined without communication.
  Matrix v(sys.dim(), 1);
  Matrix y(sys.dim(), 1);
  for (index_t i = lo * m; i < hi * m; ++i) {
    la::Rng rng = la::make_rng(seed, static_cast<std::uint64_t>(i));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    v(i, 0) = dist(rng);
  }
  double inv_norm = 0.0;
  for (int it = 0; it < iters; ++it) {
    const double vn = global_norm(comm, sumsq(v.block(lo * m, 0, nloc * m, 1)));
    for (index_t i = lo * m; i < hi * m; ++i) v(i, 0) /= vn;
    f.solve(comm, v, y);
    inv_norm = global_norm(comm, sumsq(y.block(lo * m, 0, nloc * m, 1)));
    std::swap(v, y);
    mpsim::barrier(comm);  // swap is rank-local state; keep rounds aligned
  }
  return t_norm * inv_norm;
}

}  // namespace ardbt::core
