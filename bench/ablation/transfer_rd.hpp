#pragma once

#include <vector>

#include "bench/ablation/ops_affine.hpp"
#include "src/btds/block_tridiag.hpp"
#include "src/btds/partition.hpp"
#include "src/la/lu.hpp"
#include "src/mpsim/comm.hpp"
#include "src/mpsim/engine.hpp"

/// \file transfer_rd.hpp
/// Recursive doubling over raw 2M x 2M *transfer matrices* — the textbook
/// block generalization of Stone's algorithm, kept as a numerical-accuracy
/// ablation (experiments T3 and B-abl-scaling).
///
/// The block-LU pivots follow the matrix Riccati recurrence
/// U_i = D_i - A_i U_{i-1}^{-1} C_{i-1}, linearized by the homogeneous
/// pair [Z; Y] and the transfer matrices of transfer.hpp; the triangular
/// sweeps are affine recurrences parallelized with AffineScan.
/// The factor/solve split mirrors ArdFactorization exactly, so this class
/// demonstrates the *same* O(R) acceleration — only the prefix operator
/// differs.
///
/// Why it is an ablation and not the production solver: recovering
/// U = C Z Y^{-1} loses accuracy at the rate the pair's columns align
/// with the most dominant mode, about (lambda_1 / lambda_M)^i after i
/// rows — harmless for scalar systems (M = 1, a single growing mode),
/// fatal for block systems with spread block spectra (for 2-D Poisson
/// blocks, roughly one decimal digit lost every three block rows). The
/// production solver (src/core/ard.hpp) replaces the transfer operator
/// with the boundary-reduced two-port operator, whose merges stay
/// well-conditioned at any N. Both are prefix computations with identical
/// complexity.

namespace ardbt::ablation {

/// Tag space used by this solver.
namespace transfer_tags {
inline constexpr int kBoundaryU = 81;
inline constexpr int kFwdFactor = 82;
inline constexpr int kBwdFactor = 83;
inline constexpr int kFwdSolve = 84;
inline constexpr int kBwdSolve = 85;
}  // namespace transfer_tags

/// Knobs for the transfer-matrix solver.
struct TransferRdOptions {
  /// Power-of-two renormalization of prefix products — required to keep
  /// intermediates finite for N beyond a few dozen rows; disable only to
  /// demonstrate overflow (part of the scaling ablation).
  bool rescale = true;
};

/// Factor-once / solve-many transfer-matrix recursive doubling.
class TransferRdFactorization {
 public:
  TransferRdFactorization() = default;

  /// Collective. Each rank reads only its partition rows of `sys` (the
  /// whole system or its slice). Throws fault::SingularPivotError on
  /// singular pivots or pair denominators (the latter is the instability
  /// manifesting), and fault::InvalidArgumentError when a rank owns no
  /// block row or `sys` does not hold its rows.
  static TransferRdFactorization factor(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                                        const btds::RowPartition& part,
                                        const TransferRdOptions& opts = {});

  /// Collective. Writes this rank's block rows of `x` (preallocated).
  void solve(mpsim::Comm& comm, const la::Matrix& b, la::Matrix& x) const;

  la::index_t num_blocks() const { return n_; }
  la::index_t block_size() const { return m_; }

 private:
  int rank_ = 0;
  la::index_t n_ = 0;
  la::index_t m_ = 0;
  la::index_t lo_ = 0;
  la::index_t hi_ = 0;

  std::vector<la::LuFactors> u_lu_;  // LU(U_i) per local row
  std::vector<la::Matrix> phi_;      // Phi_i = A_i U_{i-1}^{-1} (zero on row 0)
  std::vector<la::Matrix> g_;        // G_i = U_i^{-1} C_i (zero on row N-1)
  AffineScan fwd_;
  AffineScan bwd_;
};

/// One-shot solve of T X = B on `nranks` ranks in one engine run: every
/// rank factors, then solves its rows of X. Fail-fast: the first typed
/// error of any rank (a singular pivot or pair denominator, a rank with
/// no block row, a wrongly shaped `b`) propagates to the caller; there is
/// no fallback. `engine` carries the run's options (tests set a receive
/// timeout there).
la::Matrix transfer_rd_solve(const btds::BlockTridiag& sys, const la::Matrix& b, int nranks,
                             const TransferRdOptions& opts = {},
                             const mpsim::EngineOptions& engine = {});

}  // namespace ardbt::ablation
