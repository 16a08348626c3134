#include "src/la/lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/la/shape_check.hpp"
#include "src/la/smallblock/smallblock.hpp"
#include "src/la/workspace.hpp"

namespace ardbt::la {

LuInPlaceInfo lu_factor_inplace(MatrixView m, std::span<index_t> piv) {
  detail::check_shape(m.rows() == m.cols(), "la::lu_factor", "a.rows() == a.cols()", m.rows(),
                      m.cols());
  const index_t n = m.rows();
  detail::check_shape(static_cast<index_t>(piv.size()) == n, "la::lu_factor",
                      "piv.size() == a.rows()", static_cast<index_t>(piv.size()), n);
  if (smallblock::enabled() && smallblock::dispatchable(n)) {
    return smallblock::lu_factor_inplace_fixed(n, m, piv.data());
  }
  LuInPlaceInfo d;

  // ||A||_max before elimination, the growth-factor denominator.
  double a_max = 0.0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) a_max = std::max(a_max, std::abs(m(i, j)));
  }

  for (index_t k = 0; k < n; ++k) {
    // Partial pivot: largest |entry| in column k at or below the diagonal.
    index_t p = k;
    double best = std::abs(m(k, k));
    for (index_t i = k + 1; i < n; ++i) {
      const double v = std::abs(m(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    piv[static_cast<std::size_t>(k)] = p;
    if (p != k) {
      for (index_t j = 0; j < n; ++j) std::swap(m(k, j), m(p, j));
    }
    const double pivot = m(k, k);
    d.min_pivot_abs = std::min(d.min_pivot_abs, std::abs(pivot));
    d.max_pivot_abs = std::max(d.max_pivot_abs, std::abs(pivot));
    if (pivot == 0.0) {
      if (d.info == 0) d.info = k + 1;
      continue;  // complete the factorization LAPACK-style
    }
    const double inv_pivot = 1.0 / pivot;
    for (index_t i = k + 1; i < n; ++i) {
      const double lik = m(i, k) * inv_pivot;
      m(i, k) = lik;
      if (lik == 0.0) continue;
      double* mi = m.row_ptr(i);
      const double* mk = m.row_ptr(k);
      for (index_t j = k + 1; j < n; ++j) mi[j] -= lik * mk[j];
    }
  }
  // ||U||_max / ||A||_max over the upper triangle left in place.
  double u_max = 0.0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = i; j < n; ++j) u_max = std::max(u_max, std::abs(m(i, j)));
  }
  d.growth = a_max > 0.0 ? u_max / a_max : 1.0;
  return d;
}

LuFactors lu_factor(Matrix a) {
  LuFactors f;
  f.piv.resize(static_cast<std::size_t>(a.rows()));
  const LuInPlaceInfo d = lu_factor_inplace(a.view(), f.piv);
  f.info = d.info;
  f.min_pivot_abs = d.min_pivot_abs;
  f.max_pivot_abs = d.max_pivot_abs;
  f.growth = d.growth;
  f.lu = std::move(a);
  return f;
}

namespace {

/// Shared solve-path gate: a singular factorization must fail loudly in
/// release builds, not memcpy garbage through undefined arithmetic.
void require_ok(const LuFactors& f, const char* where) {
  if (!f.ok()) {
    throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, where, -1,
                                    static_cast<std::int64_t>(f.info - 1), f.growth);
  }
}

}  // namespace

LuFactors lu_factor(ConstMatrixView a) { return lu_factor(to_matrix(a)); }

void lu_solve_inplace(const LuFactors& f, MatrixView b) {
  require_ok(f, "la::lu_solve");
  lu_solve_inplace(f.lu.view(), f.piv, b);
}

void lu_solve_inplace(ConstMatrixView lu, std::span<const index_t> piv, MatrixView b) {
  const index_t n = lu.rows();
  detail::check_shape(b.rows() == n, "la::lu_solve", "b.rows() == f.n()", b.rows(), n);
  if (smallblock::enabled() && smallblock::dispatchable(n)) {
    smallblock::lu_solve_inplace_fixed(n, lu, piv.data(), b);
    return;
  }

  // Apply the row permutation: b := P b.
  for (index_t k = 0; k < n; ++k) {
    const index_t p = piv[static_cast<std::size_t>(k)];
    if (p != k) {
      for (index_t j = 0; j < b.cols(); ++j) std::swap(b(k, j), b(p, j));
    }
  }
  // Forward substitution with unit-lower L.
  for (index_t i = 1; i < n; ++i) {
    double* bi = b.row_ptr(i);
    const double* li = lu.row_ptr(i);
    for (index_t k = 0; k < i; ++k) {
      const double lik = li[k];
      if (lik == 0.0) continue;
      const double* bk = b.row_ptr(k);
      for (index_t j = 0; j < b.cols(); ++j) bi[j] -= lik * bk[j];
    }
  }
  // Back substitution with U.
  for (index_t i = n - 1; i >= 0; --i) {
    double* bi = b.row_ptr(i);
    const double* ui = lu.row_ptr(i);
    for (index_t k = i + 1; k < n; ++k) {
      const double uik = ui[k];
      if (uik == 0.0) continue;
      const double* bk = b.row_ptr(k);
      for (index_t j = 0; j < b.cols(); ++j) bi[j] -= uik * bk[j];
    }
    const double inv_uii = 1.0 / ui[i];
    for (index_t j = 0; j < b.cols(); ++j) bi[j] *= inv_uii;
  }
}

Matrix lu_solve(const LuFactors& f, ConstMatrixView b) {
  Matrix x = to_matrix(b);
  lu_solve_inplace(f, x.view());
  return x;
}

void lu_solve_inplace(const LuFactors& f, std::span<double> b) {
  MatrixView v(b.data(), static_cast<index_t>(b.size()), 1, 1);
  lu_solve_inplace(f, v);
}

namespace {

/// B := A^{-T} B using the same factors (getrs with trans='T'):
/// A^T = U^T L^T P, so solve U^T s = B, L^T t = s, B = P^{-1} t.
void lu_solve_transposed_inplace(const LuFactors& f, MatrixView b) {
  require_ok(f, "la::lu_solve_transposed");
  const index_t n = f.n();
  detail::check_shape(b.rows() == n, "la::lu_solve_transposed", "b.rows() == f.n()", b.rows(), n);
  const ConstMatrixView lu = f.lu.view();

  // Forward substitution with U^T (lower triangular, diagonal from U).
  for (index_t i = 0; i < n; ++i) {
    double* bi = b.row_ptr(i);
    const double inv_uii = 1.0 / lu(i, i);
    for (index_t j = 0; j < b.cols(); ++j) bi[j] *= inv_uii;
    for (index_t k = i + 1; k < n; ++k) {
      const double uik = lu(i, k);  // (U^T)(k,i)
      if (uik == 0.0) continue;
      double* bk = b.row_ptr(k);
      for (index_t j = 0; j < b.cols(); ++j) bk[j] -= uik * bi[j];
    }
  }
  // Back substitution with L^T (unit upper triangular).
  for (index_t i = n - 1; i >= 0; --i) {
    const double* bi = b.row_ptr(i);
    for (index_t k = 0; k < i; ++k) {
      const double lik = lu(i, k);  // (L^T)(k,i)
      if (lik == 0.0) continue;
      double* bk = b.row_ptr(k);
      for (index_t j = 0; j < b.cols(); ++j) bk[j] -= lik * bi[j];
    }
  }
  // b := P^{-1} b (undo the factorization's swaps in reverse order).
  for (index_t k = n - 1; k >= 0; --k) {
    const index_t p = f.piv[static_cast<std::size_t>(k)];
    if (p != k) {
      for (index_t j = 0; j < b.cols(); ++j) std::swap(b(k, j), b(p, j));
    }
  }
}

}  // namespace

Matrix right_divide(ConstMatrixView b, const LuFactors& f, Workspace* ws) {
  Matrix bt = ws_acquire(ws, b.cols(), b.rows());
  for (index_t i = 0; i < b.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) bt(j, i) = b(i, j);
  }
  lu_solve_transposed_inplace(f, bt.view());
  Matrix x = ws_acquire(ws, b.rows(), b.cols());
  for (index_t i = 0; i < bt.rows(); ++i) {
    for (index_t j = 0; j < bt.cols(); ++j) x(j, i) = bt(i, j);
  }
  ws_release(ws, std::move(bt));
  return x;
}

Matrix inverse(ConstMatrixView a) {
  detail::check_shape(a.rows() == a.cols(), "la::inverse", "a.rows() == a.cols()", a.rows(),
                      a.cols());
  const LuFactors f = lu_factor(a);
  require_ok(f, "la::inverse");
  Matrix inv = Matrix::identity(a.rows());
  lu_solve_inplace(f, inv.view());
  return inv;
}

}  // namespace ardbt::la
