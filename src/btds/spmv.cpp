#include "src/btds/spmv.hpp"

#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"

namespace ardbt::btds {

Matrix apply(const BlockTridiag& t, const Matrix& x) {
  require_rows(t, 0, t.num_blocks(), "btds::apply");
  const index_t n = t.num_blocks();
  const index_t m = t.block_size();
  if (x.rows() != t.dim()) {
    throw fault::ShapeMismatchError("btds::apply", "x.rows() == N*M", x.rows(), t.dim());
  }
  Matrix b(x.rows(), x.cols());
  for (index_t i = 0; i < n; ++i) {
    la::MatrixView bi = block_row(b, i, m);
    la::gemm(1.0, t.diag(i).view(), block_row(x, i, m), 0.0, bi);
    if (i > 0) la::gemm(1.0, t.lower(i).view(), block_row(x, i - 1, m), 1.0, bi);
    if (i + 1 < n) la::gemm(1.0, t.upper(i).view(), block_row(x, i + 1, m), 1.0, bi);
  }
  return b;
}

double residual_fro(const BlockTridiag& t, const Matrix& x, const Matrix& b) {
  Matrix r = apply(t, x);
  la::matrix_axpy(-1.0, b.view(), r.view());
  return la::norm_fro(r.view());
}

double relative_residual(const BlockTridiag& t, const Matrix& x, const Matrix& b) {
  const double bn = la::norm_fro(b.view());
  const double rn = residual_fro(t, x, b);
  return bn > 0.0 ? rn / bn : rn;
}

}  // namespace ardbt::btds
