#include "src/core/refine.hpp"

#include <cmath>

#include "src/btds/halo.hpp"
#include "src/la/blas1.hpp"
#include "src/la/random.hpp"
#include "src/mpsim/collectives.hpp"

namespace ardbt::core {
namespace {

using la::index_t;
using la::Matrix;

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
                           la::ConstMatrixView b_local, la::MatrixView x_local, int max_steps,
                           double tol) {
  RefineResult result;
  const double b_norm = global_norm(comm, sumsq(b_local));

  la::copy(b_local, x_local);
  f.solve_inplace(comm, x_local);

  for (int step = 0; step <= max_steps; ++step) {
    Matrix residual = btds::residual_distributed(comm, sys, x_local, b_local, part);
    const double res_norm = global_norm(comm, sumsq(residual.view()));
    result.residual_norms.push_back(res_norm);
    if (step == max_steps || res_norm <= tol * b_norm) break;

    f.solve_inplace(comm, residual.view());  // the residual becomes the correction
    la::matrix_axpy(1.0, residual.view(), x_local);
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
