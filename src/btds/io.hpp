#pragma once

#include <string>

#include "src/btds/block_tridiag.hpp"

/// \file io.hpp
/// Persistence for matrices and block tridiagonal systems:
///
/// * a versioned little-endian binary format ("ARDBT1M\n" for matrices,
///   "ARDBT1T\n" for systems) for exact round trips — problem corpora,
///   solver outputs, regression baselines;
/// * CSV export of matrices for plotting.
///
/// Every loader and writer throws fault::IoError (code kIo, naming the
/// file) on a file it cannot open, read or write, on bad magic, or on
/// truncation. Loaders allocate only what the file can hold: a header
/// claiming more data than remains, or a system block that is not M x M,
/// is an IoError before any allocation.

namespace ardbt::btds {

/// Write a matrix (binary, exact).
void save_matrix(const std::string& path, const Matrix& m);

/// Read a matrix written by save_matrix.
Matrix load_matrix(const std::string& path);

/// Write a block tridiagonal system (binary, exact). Throws
/// fault::InvalidArgumentError on a slice, before opening `path`.
void save_block_tridiag(const std::string& path, const BlockTridiag& t);

/// Read a system written by save_block_tridiag.
BlockTridiag load_block_tridiag(const std::string& path);

/// Write a matrix as CSV (one row per line, '%.17g' so values round-trip).
void save_matrix_csv(const std::string& path, const Matrix& m);

}  // namespace ardbt::btds
