#pragma once

#include <limits>

#include "src/la/matrix.hpp"

/// \file cholesky.hpp
/// Cholesky factorization A = L L^T for symmetric positive definite
/// matrices (LAPACK potrf/potrs contract): roughly half the work of LU
/// and unconditionally stable — the fast path for SPD pivot blocks (e.g.
/// symmetric diffusion operators); see ThomasFactorization's pivot option.
/// The kernels work in place on views; a failed factorization is reported
/// through CholeskyInPlaceInfo, and the caller raises the typed error.

namespace ardbt::la {

/// Diagnostics of a factorization: `info == 0` on success, `info == k+1`
/// when the leading k x k minor is not positive definite.
struct CholeskyInPlaceInfo {
  index_t info = 0;
  /// Extreme |L_kk| met so far — (sqrt of) the pivot magnitudes, the
  /// cheap condition proxy breakdown monitoring aggregates.
  double min_pivot_abs = std::numeric_limits<double>::infinity();
  double max_pivot_abs = 0.0;

  bool ok() const { return info == 0; }
  /// max/min |L_kk|, the growth a failed factorization reports
  /// (infinite when no positive pivot bounds it).
  double growth() const {
    return min_pivot_abs > 0.0 && max_pivot_abs > 0.0 ? max_pivot_abs / min_pivot_abs
                                                      : std::numeric_limits<double>::infinity();
  }
};

/// Factor the symmetric view in place: its lower triangle (the only part
/// read) becomes L, column by column, and the strict upper triangle is
/// left untouched. Stops at the first non-positive pivot. This is the
/// storage-free core the slab-resident block-Thomas sweeps use.
CholeskyInPlaceInfo cholesky_factor_inplace(MatrixView a);

/// B := A^{-1} B via two triangular solves with the lower triangle of
/// `l` (caller-owned factors; the caller checked ok() at factor time).
void cholesky_solve_inplace(ConstMatrixView l, MatrixView b);

}  // namespace ardbt::la
