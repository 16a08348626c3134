#pragma once

#include "src/btds/block_tridiag.hpp"

/// \file spmv.hpp
/// Block tridiagonal matrix application and residual checks — the ground
/// truth every solver in the library is verified against.

namespace ardbt::btds {

/// Returns T * X for X of shape (N*M) x R. Throws
/// fault::InvalidArgumentError on a slice and fault::ShapeMismatchError
/// on an X without N*M rows (as do the residuals below).
Matrix apply(const BlockTridiag& t, const Matrix& x);

/// Frobenius norm of (B - T X).
double residual_fro(const BlockTridiag& t, const Matrix& x, const Matrix& b);

/// ||B - T X||_F / ||B||_F, the solver acceptance metric used throughout
/// tests and the accuracy table (T3).
double relative_residual(const BlockTridiag& t, const Matrix& x, const Matrix& b);

}  // namespace ardbt::btds
