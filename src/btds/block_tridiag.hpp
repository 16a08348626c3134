#pragma once

#include <cassert>
#include <string>
#include <vector>

#include "src/btds/partition.hpp"
#include "src/fault/status.hpp"
#include "src/la/matrix.hpp"

/// \file block_tridiag.hpp
/// Storage for block tridiagonal systems
///
///   | D_0 C_0                    | |x_0|   |b_0|
///   | A_1 D_1 C_1                | |x_1|   |b_1|
///   |      ...                   | |...| = |...|
///   |          A_{N-1} D_{N-1}   | |x_N-1| |b_N-1|
///
/// with N block rows of square blocks of order M. `lower(0)` and
/// `upper(N-1)` do not exist and must not be touched. A BlockTridiag may
/// hold only some of the rows (a rank's slice; see the class). Right-hand sides and
/// solutions with R columns are stored as dense (N*M) x R matrices; block
/// row i of such a matrix is rows [i*M, (i+1)*M).

namespace ardbt::btds {

using la::index_t;
using la::Matrix;

/// Owning block tridiagonal matrix: block rows [lo(), hi()) of an N-row
/// system, addressed by their global indices. The whole system is the
/// range [0, N); a rank's slice (its partition's rows, the
/// domain-decomposition layout a message-passing deployment stores) is
/// any other range, so solver code reads both the same way.
class BlockTridiag {
 public:
  BlockTridiag() = default;

  /// The whole system: N zero blocks of order M on each diagonal.
  BlockTridiag(index_t num_blocks, index_t block_size)
      : BlockTridiag(num_blocks, block_size, 0, num_blocks) {}

  /// Zero slice holding block rows [part.begin(rank), part.end(rank)) of
  /// an N-row system.
  BlockTridiag(index_t num_blocks, index_t block_size, const RowPartition& part, int rank)
      : BlockTridiag(num_blocks, block_size, part.begin(rank), part.end(rank)) {}

  /// Number of block rows N of the system (not of the slice).
  index_t num_blocks() const { return n_; }
  /// Block order M.
  index_t block_size() const { return m_; }
  /// Scalar dimension N*M.
  index_t dim() const { return n_ * m_; }
  /// The block rows held: [lo(), hi()).
  index_t lo() const { return lo_; }
  index_t hi() const { return hi_; }

  /// Sub-diagonal block A_i, valid for 1 <= i < N.
  Matrix& lower(index_t i) {
    assert(i >= 1);
    return lower_[held(i)];
  }
  const Matrix& lower(index_t i) const {
    assert(i >= 1);
    return lower_[held(i)];
  }

  /// Diagonal block D_i, valid for 0 <= i < N.
  Matrix& diag(index_t i) { return diag_[held(i)]; }
  const Matrix& diag(index_t i) const { return diag_[held(i)]; }

  /// Super-diagonal block C_i, valid for 0 <= i < N-1.
  Matrix& upper(index_t i) {
    assert(i < n_ - 1);
    return upper_[held(i)];
  }
  const Matrix& upper(index_t i) const {
    assert(i < n_ - 1);
    return upper_[held(i)];
  }

 private:
  BlockTridiag(index_t num_blocks, index_t block_size, index_t lo, index_t hi)
      : n_(num_blocks),
        m_(block_size),
        lo_(lo),
        hi_(hi),
        lower_(static_cast<std::size_t>(hi - lo), Matrix(block_size, block_size)),
        diag_(static_cast<std::size_t>(hi - lo), Matrix(block_size, block_size)),
        upper_(static_cast<std::size_t>(hi - lo), Matrix(block_size, block_size)) {
    assert(num_blocks >= 1 && block_size >= 1 && 0 <= lo && lo <= hi && hi <= num_blocks);
  }

  /// Storage slot of global block row i, which must be held.
  std::size_t held(index_t i) const {
    assert(i >= lo_ && i < hi_);
    return static_cast<std::size_t>(i - lo_);
  }

  index_t n_ = 0;
  index_t m_ = 0;
  index_t lo_ = 0;
  index_t hi_ = 0;
  std::vector<Matrix> lower_;
  std::vector<Matrix> diag_;
  std::vector<Matrix> upper_;
};

/// The one row-range check of every entry point that reads a system:
/// throws fault::InvalidArgumentError from `where` unless `t` holds the
/// non-empty block-row range [lo, lo + n). Entry points that read every
/// row pass [0, N), which rejects a slice. Written so no sum can overflow.
inline void require_rows(const BlockTridiag& t, index_t lo, index_t n, const char* where) {
  if (n < 1 || lo < t.lo() || lo > t.hi() - n) {
    throw fault::InvalidArgumentError(
        where, "lo = " + std::to_string(lo) + ", n = " + std::to_string(n) +
                   " is not a non-empty range of the held block rows [" +
                   std::to_string(t.lo()) + ", " + std::to_string(t.hi()) + ") of N = " +
                   std::to_string(t.num_blocks()));
  }
}

/// The one right-hand-side shape check of the whole-system solves: throws
/// fault::ShapeMismatchError from `where` unless `b` has `dim` (= N*M)
/// rows. Under NDEBUG a wrong shape would otherwise be read out of bounds.
inline void require_rhs(index_t dim, const Matrix& b, const char* where) {
  if (b.rows() != dim) throw fault::ShapeMismatchError(where, "b.rows() == N*M", b.rows(), dim);
}

/// The same, and the solution `x` must have the shape of `b`.
inline void require_rhs(index_t dim, const Matrix& b, const Matrix& x, const char* where) {
  require_rhs(dim, b, where);
  if (x.rows() != b.rows()) {
    throw fault::ShapeMismatchError(where, "x.rows() == b.rows()", x.rows(), b.rows());
  }
  if (x.cols() != b.cols()) {
    throw fault::ShapeMismatchError(where, "x.cols() == b.cols()", x.cols(), b.cols());
  }
}

/// Mutable view of block row i of an (N*M) x R right-hand-side/solution
/// matrix.
inline la::MatrixView block_row(Matrix& x, index_t i, index_t m) {
  return x.block(i * m, 0, m, x.cols());
}
inline la::ConstMatrixView block_row(const Matrix& x, index_t i, index_t m) {
  return x.block(i * m, 0, m, x.cols());
}

}  // namespace ardbt::btds
