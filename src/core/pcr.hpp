#pragma once

#include <vector>

#include "src/btds/block_tridiag.hpp"
#include "src/btds/partition.hpp"
#include "src/la/lu.hpp"
#include "src/mpsim/comm.hpp"

/// \file pcr.hpp
/// Distributed parallel cyclic reduction (PCR) — the classic parallel
/// competitor of recursive doubling, with the paper's acceleration idea
/// applied to it as an extension.
///
/// PCR reduces every block row simultaneously: at level l (step s = 2^l)
/// row i eliminates its couplings to rows i -+ s using
///
///   D'_i = D_i - A_i D_{i-s}^{-1} C_{i-s} - C_i D_{i+s}^{-1} A_{i+s}
///   A'_i = -A_i D_{i-s}^{-1} A_{i-s}
///   C'_i = -C_i D_{i+s}^{-1} C_{i+s}
///   b'_i = b_i - A_i D_{i-s}^{-1} b_{i-s} - C_i D_{i+s}^{-1} b_{i+s}
///
/// (out-of-range neighbours drop out). After ceil(log2 N) levels every row
/// decouples: D_i x_i = b_i. Unlike recursive doubling, the *total* work
/// carries a log N factor — O(M^3 (N/P) log N) — which is why RD-family
/// methods win for N >> P; PCR's appeal is its lack of a serial
/// substitution phase and its uniform structure.
///
/// The acceleration (same split as ARD): everything except the b-updates
/// is right-hand-side independent. PcrFactorization caches, per level and
/// local row, LU(D_i) and the entering coefficients (A_i, C_i); a solve
/// then replays only the O(M^2 R) b-recurrences — O(M^2 R (N/P) log N)
/// per batch, with the per-level neighbour exchanges carrying M x R
/// blocks instead of matrix pairs. Note the memory cost: PCR must cache
/// *every level* (O(M^2 (N/P) log N) per rank), where ARD caches a single
/// level plus log P scan rounds.
///
/// Row-range communication: at level s this rank needs rows
/// [lo-s, hi-s) and [lo+s, hi+s) (clipped, minus its own); owners send
/// them in one deterministic message per (sender, receiver) pair per
/// level, both sides deriving the row list from the partition alone.

namespace ardbt::core {

/// Tag space used by the PCR solver.
namespace pcr_tags {
inline constexpr int kFactor = 90;
inline constexpr int kSolve = 91;
}  // namespace pcr_tags

/// Factor-once / solve-many distributed parallel cyclic reduction.
class PcrFactorization {
 public:
  PcrFactorization() = default;

  /// Collective. Each rank reads only its own block rows: `sys` is the
  /// whole system or this rank's slice (btds/distributed.hpp). Throws
  /// fault::InvalidArgumentError when a rank owns no block row (N < P) or
  /// `sys` does not hold its rows, and fault::SingularPivotError on a
  /// singular diagonal block at any level (cannot happen for
  /// block-diagonally-dominant input).
  static PcrFactorization factor(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                                 const btds::RowPartition& part);

  /// Collective. Writes this rank's block rows of `x` (preallocated,
  /// shape of the global (N*M) x R matrix `b`).
  void solve(mpsim::Comm& comm, const la::Matrix& b, la::Matrix& x) const;

  la::index_t num_blocks() const { return n_; }
  la::index_t block_size() const { return m_; }
  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Bytes of factored state held by this rank (grows with log N).
  std::size_t storage_bytes() const;

  /// Pivot extremes over every per-level diagonal factorization on this
  /// rank — the cheap breakdown monitor read by the solve drivers.
  const fault::PivotDiagnostics& pivot_diagnostics() const { return diag_; }

  /// Closed-form flop counts (T1-style; per-rank critical path).
  static double factor_flops(la::index_t n, la::index_t m, int p);
  static double solve_flops(la::index_t n, la::index_t m, la::index_t r, int p);

 private:
  struct RowCache {
    la::LuFactors d_lu;  // LU of D_i entering this level
    la::Matrix a, c;     // coefficients entering this level (empty if absent)
  };
  struct Level {
    la::index_t step = 0;
    std::vector<RowCache> rows;  // one per local row
  };

  la::index_t n_ = 0;
  la::index_t m_ = 0;
  la::index_t lo_ = 0;
  la::index_t hi_ = 0;
  btds::RowPartition part_{1, 1};
  std::vector<Level> levels_;
  std::vector<la::LuFactors> final_lu_;  // fully decoupled diagonals
  fault::PivotDiagnostics diag_;
};

}  // namespace ardbt::core
