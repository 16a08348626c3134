#pragma once

#include <cassert>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/la/types.hpp"
#include "src/la/views.hpp"

/// \file matrix.hpp
/// Owning dense row-major matrix of doubles. Deliberately minimal: storage,
/// element access, views, and a handful of constructors/factories. All
/// numerical kernels live in free functions (blas1/gemm/lu) operating
/// on views, so the same code paths serve owned matrices and sub-blocks.

namespace ardbt::la {

/// std::allocator whose value-less construct() default-initializes, so a
/// vector grown by resize(n) leaves trivial elements unwritten. Every
/// other construct (fill, copy) is the plain placement new.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Element storage of a Matrix, also the unit Workspace pools.
using Storage = std::vector<double, DefaultInitAllocator<double>>;

/// Dense row-major `rows x cols` matrix owning its storage.
///
/// Value-semantic (copyable, movable). Elements are zero-initialized on
/// construction so freshly created matrices are valid additively; the one
/// exception is the named constructor uninitialized().
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized `rows x cols` matrix.
  Matrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols), 0.0) {
    assert(rows >= 0 && cols >= 0);
  }

  /// Zero-initialized `rows x cols` matrix recycling `storage`'s
  /// allocation (Workspace pooling): assign() keeps the vector's capacity,
  /// so no heap traffic when it already fits rows*cols.
  Matrix(index_t rows, index_t cols, Storage&& storage)
      : rows_(rows), cols_(cols), data_(std::move(storage)) {
    assert(rows >= 0 && cols >= 0);
    data_.assign(static_cast<std::size_t>(rows * cols), 0.0);
  }

  /// Construct from nested initializer lists (row major):
  /// `Matrix m{{1,2},{3,4}};`. All rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init) {
    rows_ = static_cast<index_t>(init.size());
    cols_ = rows_ > 0 ? static_cast<index_t>(init.begin()->size()) : 0;
    data_.reserve(static_cast<std::size_t>(rows_ * cols_));
    for (const auto& r : init) {
      assert(static_cast<index_t>(r.size()) == cols_);
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  /// `rows x cols` matrix whose elements are left unwritten, for an
  /// output every element of which the caller overwrites before reading
  /// (Session::solve's result). Skips the zero-fill pass over memory.
  static Matrix uninitialized(index_t rows, index_t cols) {
    assert(rows >= 0 && cols >= 0);
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(static_cast<std::size_t>(rows * cols));
    return m;
  }

  /// n x n identity matrix.
  static Matrix identity(index_t n) {
    Matrix m(n, n);
    for (index_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  double& operator()(index_t i, index_t j) {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  double operator()(index_t i, index_t j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  /// Total number of elements.
  index_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// Whole-matrix views.
  MatrixView view() { return {data_.data(), rows_, cols_, cols_}; }
  ConstMatrixView view() const { return {data_.data(), rows_, cols_, cols_}; }

  /// Sub-block views (no copy).
  MatrixView block(index_t r0, index_t c0, index_t nr, index_t nc) {
    return view().block(r0, c0, nr, nc);
  }
  ConstMatrixView block(index_t r0, index_t c0, index_t nr, index_t nc) const {
    return view().block(r0, c0, nr, nc);
  }

  /// Set every element to `v`.
  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// Multiply every element by `s` in place.
  void scale(double s) {
    for (auto& x : data_) x *= s;
  }

  /// Reshape to zero-filled `rows x cols`, discarding contents.
  void resize(index_t rows, index_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows * cols), 0.0);
  }

  /// Steal the underlying allocation (leaves the matrix empty). Used by
  /// Workspace to return a released matrix's storage to its pool.
  Storage take_storage() && {
    rows_ = 0;
    cols_ = 0;
    return std::move(data_);
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  Storage data_;
};

/// Deep copy of a view into a fresh owning Matrix.
Matrix to_matrix(ConstMatrixView v);

/// Out-of-place transpose.
Matrix transposed(ConstMatrixView a);

/// Copy `src` into `dst`. Throws fault::ShapeMismatchError unless the
/// shapes match.
void copy(ConstMatrixView src, MatrixView dst);

}  // namespace ardbt::la
