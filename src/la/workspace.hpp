#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "src/la/matrix.hpp"

/// \file workspace.hpp
/// Free-list arena for solver scratch matrices.
///
/// The solve path is factor-once / solve-many: after the first call every
/// scratch matrix a rank ever needs (scan operands, boundary panels,
/// `right_divide` transposes) has a known shape, yet the seed code
/// allocated each one fresh per call. A Workspace keeps released storage
/// in a capacity-keyed free list; `acquire(r, c)` hands back a
/// zero-initialized Matrix built on a pooled buffer (`assign` keeps the
/// vector's capacity, so a fitting buffer means zero heap traffic) and
/// `release` returns storage to the pool. In steady state — repeated
/// solves of the same shape — `stats().slab_allocs` stops moving, the
/// property tests/test_session.cpp asserts.
///
/// One Workspace per simulated rank (core::Session owns a vector of
/// them); instances are NOT thread-safe and must not be shared across
/// pool lanes. Stats feed the `obs` metrics registry via
/// core::Session::export_arena_metrics.

namespace ardbt::la {

class Workspace {
 public:
  /// Monotonic counters; snapshot before/after a phase for per-phase use.
  struct Stats {
    std::uint64_t acquires = 0;     ///< total acquire() calls
    std::uint64_t releases = 0;     ///< total release() calls
    std::uint64_t slab_allocs = 0;  ///< acquires no pooled buffer could satisfy
    std::uint64_t slab_bytes = 0;   ///< cumulative bytes of those fresh allocations
    std::uint64_t high_water_bytes = 0;  ///< peak bytes owned (pooled + on loan)
  };

  Workspace() = default;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Zero-initialized rows x cols matrix, reusing the smallest pooled
  /// buffer that fits (heap-allocation-free when one does).
  Matrix acquire(index_t rows, index_t cols);

  /// Return a matrix's storage to the pool for future acquires.
  void release(Matrix&& m);

  const Stats& stats() const { return stats_; }

  /// Buffers currently sitting in the free list.
  std::size_t pooled_buffers() const { return pool_.size(); }

 private:
  std::multimap<std::size_t, Storage> pool_;  // capacity -> storage
  Stats stats_;
  std::uint64_t pooled_bytes_ = 0;  ///< bytes of capacity in pool_
  std::uint64_t loaned_bytes_ = 0;  ///< estimated bytes currently on loan
};

/// Null-tolerant helpers so call sites can thread an optional Workspace
/// without branching: no workspace means a plain zero-initialized Matrix
/// (resp. letting the matrix die), which is exactly the seed behavior.
inline Matrix ws_acquire(Workspace* ws, index_t rows, index_t cols) {
  return ws != nullptr ? ws->acquire(rows, cols) : Matrix(rows, cols);
}
inline void ws_release(Workspace* ws, Matrix&& m) {
  if (ws != nullptr) ws->release(std::move(m));
}

}  // namespace ardbt::la
