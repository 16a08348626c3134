#include "src/la/cholesky.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ardbt::la {

CholeskyInPlaceInfo cholesky_factor_inplace(MatrixView a) {
  assert(a.rows() == a.cols());
  const index_t n = a.rows();
  CholeskyInPlaceInfo d;

  // Column j of L overwrites column j of a's lower triangle; every read
  // of a(i, j) precedes that write, and every L entry read is final.
  for (index_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (index_t k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (diag <= 0.0) {
      d.info = j + 1;
      return d;
    }
    const double ljj = std::sqrt(diag);
    d.min_pivot_abs = std::min(d.min_pivot_abs, ljj);
    d.max_pivot_abs = std::max(d.max_pivot_abs, ljj);
    a(j, j) = ljj;
    for (index_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (index_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / ljj;
    }
  }
  return d;
}

void cholesky_solve_inplace(ConstMatrixView l, MatrixView b) {
  const index_t n = l.rows();
  assert(b.rows() == n);

  // Forward: L y = b.
  for (index_t i = 0; i < n; ++i) {
    double* bi = b.row_ptr(i);
    for (index_t k = 0; k < i; ++k) {
      const double lik = l(i, k);
      if (lik == 0.0) continue;
      const double* bk = b.row_ptr(k);
      for (index_t j = 0; j < b.cols(); ++j) bi[j] -= lik * bk[j];
    }
    const double inv = 1.0 / l(i, i);
    for (index_t j = 0; j < b.cols(); ++j) bi[j] *= inv;
  }
  // Backward: L^T x = y.
  for (index_t i = n - 1; i >= 0; --i) {
    double* bi = b.row_ptr(i);
    for (index_t k = i + 1; k < n; ++k) {
      const double lki = l(k, i);  // (L^T)(i, k)
      if (lki == 0.0) continue;
      const double* bk = b.row_ptr(k);
      for (index_t j = 0; j < b.cols(); ++j) bi[j] -= lki * bk[j];
    }
    const double inv = 1.0 / l(i, i);
    for (index_t j = 0; j < b.cols(); ++j) bi[j] *= inv;
  }
}

}  // namespace ardbt::la
