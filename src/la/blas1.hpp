#pragma once

#include <span>

#include "src/la/types.hpp"
#include "src/la/views.hpp"

/// \file blas1.hpp
/// Vector-vector kernels and matrix norms. Everything is a free function on
/// spans/views; nothing allocates.

namespace ardbt::la {

/// y += alpha * x (sizes must match).
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha.
void scal(double alpha, std::span<double> x);

/// Max-abs element of a vector (0 for empty).
double amax(std::span<const double> x);

/// Frobenius norm of a matrix view.
double norm_fro(ConstMatrixView a);

/// Infinity norm (max absolute row sum).
double norm_inf(ConstMatrixView a);

/// Max absolute element of a matrix view.
double norm_max(ConstMatrixView a);

/// B += alpha * A elementwise (shapes must match).
void matrix_axpy(double alpha, ConstMatrixView a, MatrixView b);

/// A *= alpha elementwise.
void matrix_scal(double alpha, MatrixView a);

}  // namespace ardbt::la
