#include "src/la/blas1.hpp"

#include <cassert>
#include <cmath>

namespace ardbt::la {

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(double alpha, std::span<double> x) {
  for (auto& v : x) v *= alpha;
}

double amax(std::span<const double> x) {
  double m = 0.0;
  for (double v : x) m = std::max(m, std::abs(v));
  return m;
}

double norm_fro(ConstMatrixView a) {
  double scale = 0.0;
  double ssq = 1.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (double v : a.row(i)) {
      if (v == 0.0) continue;
      const double x = std::abs(v);
      if (scale < x) {
        ssq = 1.0 + ssq * (scale / x) * (scale / x);
        scale = x;
      } else {
        ssq += (x / scale) * (x / scale);
      }
    }
  }
  return scale * std::sqrt(ssq);
}

double norm_inf(ConstMatrixView a) {
  double m = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (double v : a.row(i)) s += std::abs(v);
    m = std::max(m, s);
  }
  return m;
}

double norm_max(ConstMatrixView a) {
  double m = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) m = std::max(m, amax(a.row(i)));
  return m;
}

void matrix_axpy(double alpha, ConstMatrixView a, MatrixView b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  for (index_t i = 0; i < a.rows(); ++i) axpy(alpha, a.row(i), b.row(i));
}

void matrix_scal(double alpha, MatrixView a) {
  for (index_t i = 0; i < a.rows(); ++i) scal(alpha, a.row(i));
}

}  // namespace ardbt::la
