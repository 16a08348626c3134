#pragma once

#include "src/btds/block_tridiag.hpp"

/// \file shooting.hpp
/// The *naive* solution-space recursive-doubling formulation, kept as a
/// stability ablation (bench B-abl-scaling / accuracy table T3).
///
/// Rewriting row i directly on the solution,
///     x_{i+1} = -C_i^{-1} D_i x_i - C_i^{-1} A_i x_{i-1} + C_i^{-1} b_i,
/// gives an affine prefix on states u_i = [x_{i+1}; x_i]: one prefix
/// product to the end, an M x M boundary solve for x_0 (enforcing the
/// ghost condition x_N = 0), then forward recovery of every x_i — a
/// shooting method. The transfer matrices have spectral radius > 1 for
/// diagonally dominant systems, so recovery amplifies the O(eps) error in
/// x_0 by lambda^i: the method loses all accuracy beyond N of a few tens.
/// This is why recursive doubling runs on the block-LU recurrences
/// instead: the ratio formulation of transfer.hpp, and the library's
/// two-port form (src/core/twoport.hpp), which stays stable on blocks.

namespace ardbt::ablation {

/// Solve by the shooting prefix (sequential; the instability is
/// P-independent). Returns X. Power-of-two rescaling of the homogeneous
/// prefix keeps intermediates finite, but cannot fix the lambda^i error
/// amplification — expect garbage for large N; that is the point.
la::Matrix shooting_solve(const btds::BlockTridiag& sys, const la::Matrix& b);

}  // namespace ardbt::ablation
