#pragma once

#include "src/la/lu.hpp"
#include "src/la/matrix.hpp"

/// \file transfer.hpp
/// Transfer-matrix algebra of recursive doubling.
///
/// Block LU of a block tridiagonal matrix obeys the matrix Riccati
/// recurrence
///     U_0 = D_0,   U_i = D_i - A_i U_{i-1}^{-1} C_{i-1},
/// which in the normalized variable H_i = C_i^{-1} U_i (with the ghost
/// convention C_{N-1} := I) becomes the left matrix Moebius map
///     H_i = C_i^{-1} D_i - C_i^{-1} A_i H_{i-1}^{-1}.
/// Writing H_i = Z_i Y_i^{-1} linearizes it: the homogeneous pair
/// [Z_i; Y_i] evolves by 2M x 2M transfer matrices
///     Theta_i = | C_i^{-1} D_i   -C_i^{-1} A_i |
///               |      I               0       |
/// with initial pair [Z_{-1}; Y_{-1}] = [I; 0]. Prefix products of the
/// Theta_i are therefore exactly what recursive doubling parallelizes, and
/// because H is recovered as a *ratio*, the exponentially growing modes of
/// the prefix cancel — this is what makes the formulation stable where the
/// naive solution-space ("shooting") prefix is not (see shooting.hpp).
///
/// Prefix products are renormalized by powers of two (exact in floating
/// point); the pair is projective, so the discarded scale is irrelevant.

namespace ardbt::ablation {

using la::index_t;
using la::Matrix;

/// Assemble Theta_i from C_i^{-1}-solved blocks. `a` may be null for the
/// first block row (no sub-diagonal). `c_lu` must be the LU factors of
/// C_i, or null for the last block row (ghost C = I).
Matrix build_theta(const Matrix& d, const Matrix* a, const la::LuFactors* c_lu);

/// Rescale `m` in place by a power of two so its largest magnitude lands
/// in [1/2, 1). No-op for zero or non-finite-free matrices; the discarded
/// scale is fine because callers only use projective ratios. Returns the
/// applied exponent (for diagnostics).
int rescale_pow2(la::MatrixView m);

}  // namespace ardbt::ablation
