#include "src/core/refine.hpp"

#include <cmath>

#include "src/btds/halo.hpp"
#include "src/la/blas1.hpp"
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

}  // namespace ardbt::core
