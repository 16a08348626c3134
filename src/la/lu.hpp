#pragma once

#include <limits>
#include <span>
#include <vector>

#include "src/fault/status.hpp"
#include "src/la/matrix.hpp"

/// \file lu.hpp
/// LU factorization with partial (row) pivoting and multi-right-hand-side
/// solves. Mirrors the LAPACK getrf/getrs contract: `info == 0` on success,
/// `info == k+1` when the k-th pivot is exactly zero (the factorization is
/// still completed). Solving with a singular factorization throws
/// fault::SingularPivotError — a structured, release-mode-loud failure
/// instead of the assert-only (UB under NDEBUG) contract this library
/// used to have.

namespace ardbt::la {

/// Packed LU factorization of a square matrix: `P A = L U` with unit-lower
/// L and upper U stored in `lu`, and `piv[k]` the row swapped with row k at
/// step k.
struct LuFactors {
  Matrix lu;
  std::vector<index_t> piv;
  index_t info = 0;
  /// Extreme pivot magnitudes met during elimination (after row pivoting)
  /// — the cheap condition proxy breakdown monitoring aggregates.
  double min_pivot_abs = std::numeric_limits<double>::infinity();
  double max_pivot_abs = 0.0;
  /// Element growth ||U||_max / ||A||_max, the classic stability monitor
  /// (~1 for well-behaved eliminations, large when pivoting struggled).
  double growth = 1.0;

  /// True when no exactly-zero pivot was met.
  bool ok() const { return info == 0; }
  index_t n() const { return lu.rows(); }
};

/// Diagnostics of an in-place factorization (lu_factor_inplace): the same
/// fields LuFactors carries, for callers that own the LU storage (e.g. a
/// contiguous slab of many small blocks) and only need the numbers back.
struct LuInPlaceInfo {
  index_t info = 0;
  double min_pivot_abs = std::numeric_limits<double>::infinity();
  double max_pivot_abs = 0.0;
  double growth = 1.0;

  bool ok() const { return info == 0; }
};

/// Factor a square matrix (taken by value; moved into the result).
LuFactors lu_factor(Matrix a);

/// Factor a copy of a square view.
LuFactors lu_factor(ConstMatrixView a);

/// Factor a square view in place, writing the row swaps into the
/// caller-owned `piv` (size n). Identical arithmetic and diagnostics to
/// lu_factor — this is the storage-free core the slab-resident callers
/// (block-Thomas factor sweeps) use to avoid one Matrix + pivot vector
/// allocation per block.
LuInPlaceInfo lu_factor_inplace(MatrixView a, std::span<index_t> piv);

/// B := A^{-1} B through caller-owned factors (the in-place counterpart
/// of lu_solve_inplace(const LuFactors&, ...)). The caller is responsible
/// for having checked ok() at factor time.
void lu_solve_inplace(ConstMatrixView lu, std::span<const index_t> piv, MatrixView b);

/// B := A^{-1} B for a factored A; B has n rows and any number of columns.
void lu_solve_inplace(const LuFactors& f, MatrixView b);

/// Returns A^{-1} B without modifying B.
Matrix lu_solve(const LuFactors& f, ConstMatrixView b);

/// Single right-hand side, in place.
void lu_solve_inplace(const LuFactors& f, std::span<double> b);

class Workspace;

/// Right division: returns X = B A^{-1} (i.e. solves X A = B) via the
/// transposed system A^T X^T = B^T. B has any number of rows and n
/// columns. With a `ws`, the transpose scratch and the result come from
/// it (result storage returns to the pool when the caller releases it);
/// results are bit-identical with or without one.
Matrix right_divide(ConstMatrixView b, const LuFactors& f, Workspace* ws = nullptr);

/// Explicit inverse via LU (test/diagnostic utility; solvers never call it).
Matrix inverse(ConstMatrixView a);

/// Flop counts (LAPACK conventions).
inline double lu_factor_flops(index_t n) {
  const double dn = static_cast<double>(n);
  return 2.0 / 3.0 * dn * dn * dn;
}
inline double lu_solve_flops(index_t n, index_t nrhs) {
  return 2.0 * static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(nrhs);
}

}  // namespace ardbt::la
