#pragma once

#include "src/btds/block_tridiag.hpp"

/// \file cyclic_reduction.hpp
/// Sequential block cyclic reduction (BCR) — the second baseline solver
/// (experiments F5, T3). Eliminates even-indexed block unknowns level by
/// level (log2 N levels), recursing on the half-size system of odd
/// unknowns, then back-substitutes. Like block Thomas it needs invertible
/// diagonal blocks at every level, which block diagonal dominance
/// guarantees.

namespace ardbt::btds {

/// Solve T X = B by block cyclic reduction. X has the shape of B.
/// Throws fault::SingularPivotError on a singular diagonal block at any
/// level, and fault::InvalidArgumentError on a slice.
Matrix cyclic_reduction_solve(const BlockTridiag& t, const Matrix& b);

/// Approximate flop count (factor + solve; leading order).
double cyclic_reduction_flops(index_t num_blocks, index_t block_size, index_t num_rhs);

}  // namespace ardbt::btds
