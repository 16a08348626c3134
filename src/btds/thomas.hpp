#pragma once

#include <memory>
#include <vector>

#include "src/btds/block_tridiag.hpp"
#include "src/fault/status.hpp"
#include "src/la/matrix.hpp"

namespace ardbt::par {
class Pool;
}
namespace ardbt::la {
class Workspace;
}

/// \file thomas.hpp
/// Sequential block Thomas algorithm (block LU without inter-block
/// pivoting) — the serial baseline of experiment F5 and the accuracy
/// reference of T3. Split into a factor-once object so its multi-RHS
/// amortization matches the accelerated solver's (factor O(N M^3), each
/// solve O(N M^2 R)).
///
/// Requires the pivot blocks D'_i = D_i - A_i D'_{i-1}^{-1} C_{i-1} to be
/// invertible, which holds for block-diagonally-dominant systems.

namespace ardbt::btds {

/// How the pivot blocks D'_i are factored.
enum class PivotKind {
  kLu,        ///< LU with partial pivoting (default; any invertible pivots)
  kCholesky,  ///< Cholesky — pivots must be SPD (true for SPD systems,
              ///< whose block-LU pivots are Schur complements); ~2x less
              ///< pivot-factor work and unconditionally stable
};

/// Factor-once / solve-many block Thomas factorization. Its factored state
/// is one contiguous slab for both pivot kinds and every block order. The
/// factor and the solve sweep each run over the kernel set that
/// la::smallblock::with_kernels picks when they run; both sets give the
/// same bits, so results do not depend on the small-block layer setting
/// at either time (docs/KERNELS.md).
///
/// The factorization borrows the system it factored: the slab keeps D'_i's
/// factors and G_i, and every solve (and V's forward sweep in the factor)
/// reads the sub-diagonal blocks A_i from the system itself rather than
/// from a copy. The system must outlive the factorization, stay at its
/// address and keep the segment's A_i unmodified; rebind() moves the borrow
/// to another system object holding the same rows. Temporaries are
/// rejected at compile time.
class ThomasFactorization {
 public:
  /// Factor the whole system: factor_segment(t, 0, N, pivot), which has no
  /// neighbour and so computes no spikes. Same errors; a slice, which does
  /// not hold all N rows, is rejected. Borrows `t` (see the class).
  static ThomasFactorization factor(const BlockTridiag& t, PivotKind pivot = PivotKind::kLu);
  static ThomasFactorization factor(BlockTridiag&&, PivotKind = PivotKind::kLu) = delete;

  /// Factor block rows [lo, lo + n) of `t` (global indices; `t` may be a
  /// slice holding them) as a standalone segment, reading the blocks in
  /// place and borrowing `t` (see the class), and compute in the same
  /// pass the corner spikes a neighbour reads: V = T_seg^{-1} E_first iff
  /// the segment has rows above it (lo > 0), W = T_seg^{-1} E_last iff it
  /// has rows below it (lo + n < N). V's forward sweep runs inside the
  /// factor loop, and V's and W's backward sweeps share one walk over the
  /// G_i. Throws
  /// fault::SingularPivotError (carrying the block row, scalar pivot
  /// index, and pivot growth) on a singular pivot block (kLu) or a non-SPD
  /// pivot block (kCholesky), and fault::InvalidArgumentError unless
  /// 1 <= n and t.lo() <= lo and lo + n <= t.hi().
  ///
  /// The spikes are kept on their support only. Column c of a spike has a
  /// tip value t_c, the largest |entry| of column c in the tip block row
  /// as its sweep first produces it (D'_0^{-1} for V, whose forward sweep
  /// decides its support; W's final row N-1). Walking away from the tip,
  /// the column is zero from the first block row whose M entries in that
  /// column are all below DBL_EPSILON * t_c, working precision (a NaN,
  /// infinite or zero t_c never cuts). Block rows past the last live
  /// column are neither computed nor stored, and any nonzero subnormal
  /// left in the support is stored as +0. Every dropped entry is below
  /// about DBL_EPSILON * t_c, and the stored V rows next to V's cut move
  /// by as much, so solutions agree with the dense spikes' to working
  /// precision, not bit for bit. On diagonally dominant input the support
  /// is 10-20 rows; on 2-D Poisson about 48, 100 and 190 rows at M = 3, 8
  /// and 16. On a segment shorter than that the support is the whole
  /// segment and the spikes are bit-identical to solve_inplace() on the two
  /// unit loads. The rule is per column, scale-invariant and
  /// deterministic (docs/ALGORITHMS.md §4).
  static ThomasFactorization factor_segment(const BlockTridiag& t, index_t lo, index_t n,
                                            PivotKind pivot = PivotKind::kLu);
  static ThomasFactorization factor_segment(BlockTridiag&&, index_t, index_t,
                                            PivotKind = PivotKind::kLu) = delete;

  /// Move the borrow to `t`, a system object holding the factored rows
  /// with the same A_i (an equal copy, or the same rows at a new address).
  /// Only where the solves read A_i changes; nothing is refactored or
  /// compared. Throws fault::InvalidArgumentError unless `t` has this
  /// factorization's block order and holds its rows.
  void rebind(const BlockTridiag& t);
  void rebind(BlockTridiag&&) = delete;

  /// Pivot extremes accumulated over every factored pivot block — the
  /// cheap breakdown monitor read by the solve drivers.
  const fault::PivotDiagnostics& pivot_diagnostics() const { return diag_; }

  /// Solve for all columns of B; returns X with the same shape. Throws
  /// fault::InvalidArgumentError unless B has N*M rows.
  ///
  /// A non-null `pool` splits the RHS columns into panels, one per pool
  /// lane, and runs both sweeps independently per panel (the sweeps'
  /// recurrences run along block rows, so columns never couple). Each
  /// column sees the exact serial operation order — the result is
  /// bit-identical for any pool size.
  ///
  /// A non-null `ws` sources the result matrix from the workspace arena
  /// (the caller owns it and may release it back); results are
  /// bit-identical with or without one.
  Matrix solve(const Matrix& b, par::Pool* pool = nullptr, la::Workspace* ws = nullptr) const;

  /// In-place solve: `x` holds B on entry and X on return. It may be a
  /// strided block of a larger matrix (a column panel, a row range), so
  /// callers solve straight into their output without a temporary. Same
  /// pool contract and errors as solve(), and bit-identical to it.
  void solve_inplace(la::MatrixView x, par::Pool* pool = nullptr) const;

  /// The corner spikes factor_segment() computed. V is stored on block
  /// rows [0, v_rows()), W on [w_first(), N); outside those ranges the
  /// spike is zero. A spike not computed (no neighbour on its side) has
  /// v_rows() == 0 or w_first() == N.
  index_t v_rows() const { return v_rows_; }
  index_t w_first() const { return n_ - w_rows_; }
  /// Block row i of V (i < v_rows()) or of W (i >= w_first()).
  la::ConstMatrixView v_block(index_t i) const;
  la::ConstMatrixView w_block(index_t i) const;
  /// Block row i of V or W as a matrix, zero outside the support (the
  /// two-port corners P = V_0, Q = W_0, R = V_{N-1}, S = W_{N-1}).
  Matrix v_corner(index_t i) const;
  Matrix w_corner(index_t i) const;

  index_t num_blocks() const { return n_; }
  index_t block_size() const { return m_; }

  /// Flop counts for the cost model / T1. The factor count depends on the
  /// pivot kind (Cholesky halves the pivot-factorization share).
  static double factor_flops(index_t n, index_t m, PivotKind pivot = PivotKind::kLu);
  static double solve_flops(index_t n, index_t m, index_t r);
  /// The dense model count of the spikes factor_segment(t, lo, n)
  /// computes on an N-row system: per row, a full M-column solve for V
  /// (6 M^3) when lo > 0, and for W one pivot solve and the backward sweep
  /// (2 M^3) when lo + n < N. factor_segment() computes only the spikes'
  /// support, so on a decaying segment it does less work than this; the
  /// virtual clock charges this count regardless, modelling the paper's
  /// dense algorithm.
  static double spike_flops(index_t lo, index_t n, index_t num_blocks, index_t m);

  /// Bytes of factored state: the (2N - 1) M x M slab blocks, the N M LU
  /// row swaps under kLu, and the spikes' stored support. The borrowed
  /// A_i are the system's, not counted here.
  std::size_t storage_bytes() const;

 private:
  /// The factor sweep over rows [lo, lo + n) of `t` with kernel set K
  /// (la/smallblock/kernels.hpp), with the fused sweep of the spikes the
  /// segment's neighbours read riding along (see SpikeSweep in
  /// thomas.cpp).
  template <typename K>
  void factor_sweep(const BlockTridiag& t, index_t lo);
  template <typename K>
  class SpikeSweep;

  /// Factor D'_i in place (LU or Cholesky, from the pivot kind), record
  /// its diagnostics, and throw on a singular or non-SPD pivot; with a
  /// non-empty `g` (C_i on entry), also g := D'_i^{-1} g. Under kLu that
  /// is one elimination of [D'_i | C_i] (K::lu_factor_solve).
  template <typename K>
  void factor_pivot(index_t i, la::MatrixView g);
  /// b := D'_i^{-1} b with the stored factors of D'_i.
  template <typename K>
  void pivot_solve(index_t i, la::MatrixView b) const;
  /// Both sweeps on one column panel of x. Strided views keep this
  /// zero-copy.
  template <typename K>
  void solve_panel(la::MatrixView x) const;
  /// Throw fault::InvalidArgumentError unless `rows` == N*M.
  void check_rhs_rows(index_t rows) const;

  /// Slab block k, M x M row-major: the factors of D'_i at k = i, G_i at
  /// N + i.
  la::MatrixView slab_block(index_t k) const {
    return la::MatrixView(blocks_.get() + k * m_ * m_, m_, m_);
  }
  la::MatrixView pivot_block(index_t i) const { return slab_block(i); }
  la::MatrixView g_block(index_t i) const { return slab_block(n_ + i); }
  /// A_{i+1}, the segment's row i + 1 coupling to row i, read from the
  /// borrowed system.
  la::ConstMatrixView lower_block(index_t i) const { return sys_->lower(lo_ + i + 1).view(); }
  /// The M row swaps of D'_i's LU (kLu only).
  la::index_t* pivots(index_t i) const { return piv_.get() + i * m_; }

  index_t n_ = 0;
  index_t m_ = 0;
  PivotKind pivot_ = PivotKind::kLu;
  fault::PivotDiagnostics diag_;
  const BlockTridiag* sys_ = nullptr;  // the borrowed system (see the class)
  index_t lo_ = 0;                     // the segment's first global block row
  // The factored state in one contiguous uninitialized allocation of
  // slab_size_ = (2N - 1) M^2 doubles: N pivot factors (LU packed, or
  // Cholesky's L in the lower triangle), then N - 1 G_i = D'_i^{-1} C_i.
  // The factor sweep overwrites every entry, so zero-filling would only
  // add a pass; the sweeps run with no per-block allocation and the
  // solves stream sequential memory.
  std::unique_ptr<double[]> blocks_;
  std::size_t slab_size_ = 0;
  std::unique_ptr<la::index_t[]> piv_;  // N * M LU row swaps (kLu)
  // Corner spikes on their support, M x M row-major blocks: V's block
  // rows 0 .. v_rows_-1 in order, W's rows N-1, N-2, .. N-w_rows_ in the
  // order the backward sweep produces them (walking away from its tip).
  std::vector<double> v_;
  std::vector<double> w_;
  index_t v_rows_ = 0;
  index_t w_rows_ = 0;
};

/// One-shot convenience: factor + solve.
Matrix thomas_solve(const BlockTridiag& t, const Matrix& b);

}  // namespace ardbt::btds
