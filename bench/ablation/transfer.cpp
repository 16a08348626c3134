#include "bench/ablation/transfer.hpp"

#include <cassert>
#include <cmath>

#include "src/la/blas1.hpp"

namespace ardbt::ablation {

Matrix build_theta(const Matrix& d, const Matrix* a, const la::LuFactors* c_lu) {
  const index_t m = d.rows();
  assert(d.cols() == m);
  assert(!a || (a->rows() == m && a->cols() == m));

  // Solve C [Wd | Wa] = [D | A] in one pass (2M right-hand sides).
  Matrix rhs(m, a ? 2 * m : m);
  la::copy(d.view(), rhs.block(0, 0, m, m));
  if (a) la::copy(a->view(), rhs.block(0, m, m, m));
  if (c_lu) la::lu_solve_inplace(*c_lu, rhs.view());

  Matrix theta(2 * m, 2 * m);
  la::copy(rhs.block(0, 0, m, m), theta.block(0, 0, m, m));
  if (a) {
    la::MatrixView tr = theta.block(0, m, m, m);
    la::copy(rhs.block(0, m, m, m), tr);
    la::matrix_scal(-1.0, tr);
  }
  for (index_t i = 0; i < m; ++i) theta(m + i, i) = 1.0;
  return theta;
}

int rescale_pow2(la::MatrixView m) {
  const double mx = la::norm_max(m);
  if (mx == 0.0 || !std::isfinite(mx)) return 0;
  const int k = std::ilogb(mx) + 1;  // 2^{k-1} <= mx < 2^k
  if (k == 0) return 0;
  const double s = std::ldexp(1.0, -k);
  la::matrix_scal(s, m);
  return -k;
}

}  // namespace ardbt::ablation
