#pragma once

#include <vector>

#include "src/btds/block_tridiag.hpp"
#include "src/fault/status.hpp"

/// \file banded_lu.hpp
/// Scalar banded LU with partial pivoting (LAPACK gbtrf/gbtrs contract) on
/// the assembled block tridiagonal matrix — the exact fallback rung of the
/// graceful-degradation ladder (docs/ROBUSTNESS.md). Block Thomas, ARD,
/// RD and PCR all pivot only *within* diagonal blocks, so a singular block
/// pivot breaks them even when the global matrix is perfectly invertible;
/// row pivoting across the full band has no such blind spot. The price is
/// seriality: O(N M) pivot steps of O(M^2) work each, no rank parallelism
/// — which is why it is a fallback, not the default.

namespace ardbt::btds {

/// Factor-once / solve-many banded LU of the assembled (N*M) x (N*M)
/// matrix with bandwidths kl = ku = 2M - 1.
class BandedLuFactorization {
 public:
  /// Assemble the band storage and factor with partial pivoting. Throws
  /// fault::SingularPivotError only if an entire pivot column is zero —
  /// i.e. the global matrix itself is singular — and
  /// fault::InvalidArgumentError on a slice.
  static BandedLuFactorization factor(const BlockTridiag& t);

  /// Solve for all columns of B; returns X with the same shape. Throws
  /// fault::ShapeMismatchError unless B has N*M rows.
  Matrix solve(const Matrix& b) const;

  /// Pivot extremes over all N*M scalar elimination steps.
  const fault::PivotDiagnostics& pivot_diagnostics() const { return diag_; }

  index_t dim() const { return nn_; }
  index_t block_size() const { return m_; }

  /// Flop counts for the cost model (band elimination / band solves).
  static double factor_flops(index_t n, index_t m);
  static double solve_flops(index_t n, index_t m, index_t r);

  /// Bytes of factored band storage.
  std::size_t storage_bytes() const;

 private:
  index_t nn_ = 0;  ///< scalar dimension N*M
  index_t m_ = 0;
  index_t kl_ = 0;  ///< sub-diagonal bandwidth 2M - 1
  index_t ku_ = 0;  ///< super-diagonal bandwidth 2M - 1
  /// Row-window band storage: entry (i, j) lives at ab_(i, j - i + kl_).
  /// Width 2*kl_ + ku_ + 1 leaves room for the fill row swaps push into U.
  Matrix ab_;
  std::vector<index_t> piv_;  ///< pivot row chosen at each step
  fault::PivotDiagnostics diag_;
};

/// One-shot convenience: assemble + factor + solve.
Matrix banded_lu_solve(const BlockTridiag& t, const Matrix& b);

}  // namespace ardbt::btds
