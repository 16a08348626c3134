#include "src/la/matrix.hpp"

#include <algorithm>
#include <cstring>

#include "src/la/shape_check.hpp"

namespace ardbt::la {

Matrix to_matrix(ConstMatrixView v) {
  Matrix m(v.rows(), v.cols());
  copy(v, m.view());
  return m;
}

Matrix transposed(ConstMatrixView a) {
  Matrix t(a.cols(), a.rows());
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  return t;
}

void copy(ConstMatrixView src, MatrixView dst) {
  detail::check_shape(src.rows() == dst.rows(), "la::copy", "src.rows() == dst.rows()",
                      src.rows(), dst.rows());
  detail::check_shape(src.cols() == dst.cols(), "la::copy", "src.cols() == dst.cols()",
                      src.cols(), dst.cols());
  if (src.contiguous() && dst.contiguous()) {
    std::memcpy(dst.data(), src.data(),
                static_cast<std::size_t>(src.rows() * src.cols()) * sizeof(double));
    return;
  }
  for (index_t i = 0; i < src.rows(); ++i) {
    std::memcpy(dst.row_ptr(i), src.row_ptr(i),
                static_cast<std::size_t>(src.cols()) * sizeof(double));
  }
}

}  // namespace ardbt::la
