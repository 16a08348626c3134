#include "src/core/krylov.hpp"

#include <cassert>
#include <cmath>

#include "src/la/blas1.hpp"
#include "src/mpsim/collectives.hpp"

namespace ardbt::core {
namespace {

using la::index_t;
using la::Matrix;

/// Column-wise dot products <a_j, b_j> over the distributed slices: one
/// allreduce of R doubles.
std::vector<double> column_dots(mpsim::Comm& comm, const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  std::vector<double> dots(static_cast<std::size_t>(a.cols()), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      dots[static_cast<std::size_t>(j)] += a(i, j) * b(i, j);
    }
  }
  mpsim::allreduce_sum(comm, dots);
  return dots;
}

/// a(:, j) += s[j] * b(:, j) column-wise.
void columns_axpy(const std::vector<double>& s, const Matrix& b, Matrix& a) {
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      a(i, j) += s[static_cast<std::size_t>(j)] * b(i, j);
    }
  }
}

/// M^{-1} v with the ARD preconditioner, or a copy of v without one.
Matrix precondition(mpsim::Comm& comm, const ArdFactorization* precond, const Matrix& v) {
  Matrix z = v;
  if (precond != nullptr) precond->solve_inplace(comm, z.view());
  return z;
}

}  // namespace

KrylovResult pcg(mpsim::Comm& comm, const btds::BlockTridiag& op,
                 const btds::RowPartition& part, const ArdFactorization* precond,
                 const la::Matrix& b_local, la::Matrix& x_local, int max_iters, double tol) {
  const index_t rows = b_local.rows();
  const index_t r = b_local.cols();
  if (x_local.rows() != rows || x_local.cols() != r) x_local.resize(rows, r);

  KrylovResult result;
  const auto b_norm2 = column_dots(comm, b_local, b_local);

  // r0 = b - A x0.
  Matrix residual = btds::residual_distributed(comm, op, x_local.view(), b_local.view(), part);

  // z = M^{-1} r, p = z.
  Matrix z = precondition(comm, precond, residual);
  Matrix p = z;
  std::vector<double> rz = column_dots(comm, residual, z);

  const auto max_rel = [&](const std::vector<double>& r2) {
    double mx = 0.0;
    for (std::size_t j = 0; j < r2.size(); ++j) {
      const double denom = b_norm2[j] > 0.0 ? b_norm2[j] : 1.0;
      mx = std::max(mx, std::sqrt(std::max(r2[j], 0.0) / denom));
    }
    return mx;
  };

  for (int it = 0; it < max_iters; ++it) {
    const auto r2 = column_dots(comm, residual, residual);
    result.residual_norms.push_back(max_rel(r2));
    if (result.residual_norms.back() <= tol) {
      result.converged = true;
      break;
    }

    const Matrix ap = btds::apply_distributed(comm, op, p.view(), part);
    const auto pap = column_dots(comm, p, ap);
    std::vector<double> alpha(static_cast<std::size_t>(r));
    std::vector<double> neg_alpha(static_cast<std::size_t>(r));
    for (std::size_t j = 0; j < alpha.size(); ++j) {
      alpha[j] = pap[j] != 0.0 ? rz[j] / pap[j] : 0.0;
      neg_alpha[j] = -alpha[j];
    }
    columns_axpy(alpha, p, x_local);
    columns_axpy(neg_alpha, ap, residual);

    z = precondition(comm, precond, residual);
    const auto rz_new = column_dots(comm, residual, z);
    std::vector<double> beta(static_cast<std::size_t>(r));
    for (std::size_t j = 0; j < beta.size(); ++j) {
      beta[j] = rz[j] != 0.0 ? rz_new[j] / rz[j] : 0.0;
    }
    rz = rz_new;
    // p = z + beta p (column-wise).
    for (index_t i = 0; i < rows; ++i) {
      for (index_t j = 0; j < r; ++j) {
        p(i, j) = z(i, j) + beta[static_cast<std::size_t>(j)] * p(i, j);
      }
    }
    ++result.iterations;
  }

  // Exact final residual (the recurrence can drift).
  const Matrix final_res =
      btds::residual_distributed(comm, op, x_local.view(), b_local.view(), part);
  const auto fr2 = column_dots(comm, final_res, final_res);
  result.residual_norms.push_back(max_rel(fr2));
  result.converged = result.residual_norms.back() <= tol;
  return result;
}

}  // namespace ardbt::core
