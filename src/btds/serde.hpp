#pragma once

#include <cassert>
#include <cstring>
#include <span>
#include <vector>

#include "src/la/matrix.hpp"
#include "src/la/workspace.hpp"

/// \file serde.hpp
/// The one wire format for matrices of known shape, used by every message
/// that carries blocks: the payload is just the row-major doubles; both
/// sides agree on dimensions out of band (they always do in the solvers —
/// every exchanged block has a shape the receiver derives itself).

namespace ardbt::btds {

/// Append `m`'s rows to `bytes` as row-major doubles, no header. `m` may
/// be a strided view.
inline void append_matrix(std::vector<std::byte>& bytes, la::ConstMatrixView m) {
  const std::size_t row_bytes = static_cast<std::size_t>(m.cols()) * sizeof(double);
  std::size_t at = bytes.size();
  bytes.resize(at + static_cast<std::size_t>(m.rows()) * row_bytes);
  for (la::index_t i = 0; i < m.rows(); ++i, at += row_bytes) {
    std::memcpy(bytes.data() + at, m.row(i).data(), row_bytes);
  }
}

/// The rows x cols matrix at the front of `cursor` (as append_matrix
/// wrote it); advances `cursor` past it. A non-null `ws` sources the
/// matrix from that arena.
inline la::Matrix take_matrix(std::span<const std::byte>& cursor, la::index_t rows,
                              la::index_t cols, la::Workspace* ws = nullptr) {
  la::Matrix m = la::ws_acquire(ws, rows, cols);
  const std::size_t bytes = static_cast<std::size_t>(m.size()) * sizeof(double);
  assert(cursor.size() >= bytes);
  std::memcpy(m.data().data(), cursor.data(), bytes);
  cursor = cursor.subspan(bytes);
  return m;
}

}  // namespace ardbt::btds
