#pragma once

#include "src/btds/block_tridiag.hpp"
#include "src/btds/partition.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/scan.hpp"
#include "src/core/twoport.hpp"
#include "src/mpsim/comm.hpp"

/// \file ard.hpp
/// The accelerated recursive doubling (ARD) solver — the library's
/// production implementation of the paper's contribution (S. Seal,
/// IPDPS 2014).
///
/// ARD splits a recursive-doubling solve into a right-hand-side-independent
/// *factor* phase, run once per matrix, and a cheap *solve* phase, run once
/// per right-hand-side batch:
///
///   factor — O(M^3 (N/P + log P)) work, O(M^2 (N/P + log P)) memory:
///     1. block-Thomas factorization of this rank's row segment, read in
///        place from the caller's rows;
///     2. in the same sweep, the corner spikes the segment's neighbours
///        read: V = A_seg^{-1} E_first when a rank lies above it,
///        W = A_seg^{-1} E_last when one lies below (so rank 0 has no V,
///        rank P-1 no W, and a serial run neither). V's forward sweep runs
///        inside the factor loop and both backward sweeps share one walk;
///        each spike is kept only on the rows where it has not decayed
///        below working precision (DBL_EPSILON) relative to its tip
///        (btds::ThomasFactorization::factor_segment). Their corner blocks
///        form the segment's two-port, and the spike update walks only
///        that support;
///     3. forward and backward hypercube prefix scans over two-ports
///        (CachedScan<TwoPortOp>, log P rounds of O(M^3) merges, caching
///        the per-round matrices);
///     4. the prefix scans deliver exact boundary relations
///            x_{lo-1} = -S_pre C_{lo-1} x_lo     + q_pre(b)
///            x_hi     = -P_suf A_hi     x_{hi-1} + p_suf(b),
///        which close the segment through the 2M x 2M interface matrix
///            K = I - [[F P, F Q], [G R, G S]],
///            F = A_lo S_pre C_{lo-1},  G = C_{hi-1} P_suf A_hi,
///        LU-factored once (O(M^3) per rank).
///
///   solve — O(M^2 R (N/P + log P)) for R right-hand sides:
///     one local solve y = A_seg^{-1} b, whose first and last block rows
///     are the segment's (p, q); a vector-only replay of both scans
///     (cached matrices, M x R exchanges); one interface solve
///         K [g; h] = [A_lo q_pre - F p; C_{hi-1} p_suf - G q];
///     and the spike update x = y - V g - W h.
///
/// Classic RD re-runs the factor phase on every solve; amortized over R
/// right-hand sides ARD is therefore ~R/(1 + c R/M) times faster — the
/// abstract's O(R) improvement (experiment F1).
///
/// All entry points are SPMD-collective: every rank calls with the same
/// partition; rank r reads/writes only the block rows its partition
/// assigns. The system may be shared by the ranks (mpsim ranks share the
/// address space) or be each rank's own slice (btds/distributed.hpp); it
/// only has to hold the rank's rows. Solves run in place on the rank's
/// rows of the right-hand side, which may be a row range of a shared
/// global matrix or a rank-local one.

namespace ardbt::core {

/// Tag space used by the production solver. Solve-phase replays draw
/// dynamic tags per panel (Comm::next_tag), so only the factor scans need
/// fixed ones.
namespace ard_tags {
inline constexpr int kFwdFactor = 70;
inline constexpr int kBwdFactor = 71;
}  // namespace ard_tags

/// Solver knobs.
struct ArdOptions {
  /// Pivot factorization of the local segments. kCholesky halves the
  /// pivot-factor work and is unconditionally stable, but requires an SPD
  /// system (symmetric with A_{i+1} = C_i^T), whose segments are then SPD
  /// as well. The interface matrix K is not symmetric and is LU-factored
  /// under either kind.
  btds::PivotKind pivot = btds::PivotKind::kLu;
  /// Pivot-growth ratio (diagnostics().growth()) above which a completed
  /// factorization is considered broken down: its solutions are accepted
  /// or repaired per the driver's BreakdownPolicy. The monitor itself only
  /// compares pivot magnitudes already computed — it never charges flops,
  /// so modeled virtual times are unchanged by any threshold.
  double breakdown_growth_threshold = 1e12;
  /// Columns per RHS panel in solve(B); 0 = one panel with all R columns.
  /// The latency-hiding schedule itself is always on (docs/PARALLELISM.md,
  /// "Latency-hiding pipeline"): the forward and backward scans are
  /// round-interleaved in both phases, and panel k+1's local solve runs
  /// while panel k's scan replay is in flight. Solutions are bit-identical
  /// for any chunk size or --threads.
  la::index_t chunk_cols = 0;
};

/// Factor-once / solve-many distributed factorization.
class ArdFactorization {
 public:
  ArdFactorization() = default;

  /// Collective. Factor the system (phase 1). `sys` is the whole system or
  /// this rank's slice; it must hold the rank's partition rows. Throws
  /// fault::InvalidArgumentError when a rank owns no block row (N < P) or
  /// `sys` does not hold its rows, and fault::SingularPivotError on a
  /// singular segment pivot or a singular interface matrix (system not
  /// block-LU factorizable; cannot happen for block-diagonally-dominant
  /// input).
  ///
  /// A non-null `ws` is this rank's workspace arena: every solve-phase
  /// temporary (boundary panels, scan replay vectors, right-divide
  /// transposes) is drawn from and returned to it, making repeated
  /// solve() calls allocation-free once the arena is warm. The arena must
  /// outlive the factorization, is used only by this rank's thread, and
  /// never changes results (bit-identical with or without one).
  ///
  /// The factorization borrows `sys`, like btds::ThomasFactorization: the
  /// segment solves read this rank's sub-diagonal blocks from it, so it
  /// must outlive the factorization (or be replaced through update()) and
  /// keep those blocks unmodified. Temporaries are rejected at compile
  /// time.
  static ArdFactorization factor(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                                 const btds::RowPartition& part, const ArdOptions& opts = {},
                                 la::Workspace* ws = nullptr);
  static ArdFactorization factor(mpsim::Comm&, btds::BlockTridiag&&, const btds::RowPartition&,
                                 const ArdOptions& = {}, la::Workspace* = nullptr) = delete;

  /// Collective. The solve (phase 2), in place: `x_local` is this rank's
  /// (nloc*M) x R rows, holding b on entry and the solution on exit. It
  /// may be a strided view (a row range of a global matrix) or a
  /// rank-local slice (e.g. from btds::scatter_rows); its column panels
  /// are solved and corrected where they lie, with no staging copy.
  /// Throws fault::ShapeMismatchError unless it has nloc*M rows.
  void solve_inplace(mpsim::Comm& comm, la::MatrixView x_local) const;

  /// Collective. Solve for all columns of `b`: copies this rank's block
  /// rows of `b` into the same rows of `x`, then solve_inplace on them.
  /// `b` and `x` are global (N*M) x R matrices; `x` must be preallocated
  /// with the shape of `b`, and its other ranks' rows are not touched.
  /// Throws fault::ShapeMismatchError on any other shape.
  void solve(mpsim::Comm& comm, const la::Matrix& b, la::Matrix& x) const;

  /// Collective. Cheap refactorization after the matrix changed on *some*
  /// ranks. Pass `rows_changed = true` on ranks whose block rows differ
  /// from what was factored; those redo the full local phase. Unchanged
  /// ranks keep their segment factorization, spikes and two-port, and
  /// only replay the O(M^3 log P) scans and rebuild F, G and K. The
  /// partition must be unchanged, and `sys` must hold this rank's rows
  /// (as in factor(); fault::InvalidArgumentError otherwise). Every rank
  /// borrows `sys` from then on, so an unchanged rank may be handed a new
  /// system object holding equal rows and the old one destroyed.
  void update(mpsim::Comm& comm, const btds::BlockTridiag& sys, bool rows_changed);
  void update(mpsim::Comm&, btds::BlockTridiag&&, bool) = delete;

  la::index_t num_blocks() const { return n_; }
  la::index_t block_size() const { return m_; }

  /// Approximate bytes of factored state held by this rank (T1's memory
  /// column): the segment factorization, its spikes' support (up to M^2
  /// doubles per block row for each spike it computes), the interface LU
  /// and the scan caches. The end ranks hold one spike each.
  std::size_t storage_bytes() const;

  /// The breakdown monitor the drivers compare against
  /// ArdOptions::breakdown_growth_threshold: the pivot extremes of this
  /// rank's segment factorization, or those of its interface matrix K
  /// (read against its identity scale of 1) when its growth is larger.
  fault::PivotDiagnostics diagnostics() const;

 private:
  /// The factor phase splits into a purely local part (segment
  /// factorization, spikes and two-port, the O(M^3 N/P) term) and a global
  /// part (scans + interface system, O(M^3 log P)) so `update` can skip
  /// the former on unchanged ranks.
  void local_phase(mpsim::Comm& comm, const btds::BlockTridiag& sys);
  void global_phase(mpsim::Comm& comm);

  /// x -= V g + W h over the block rows of the spikes' support, with
  /// [g; h] the solved interface right-hand side (a side without a
  /// neighbour has neither its spike nor its rows).
  void apply_spikes(la::ConstMatrixView gh, la::MatrixView x, par::Pool* pool) const;

  int rank_ = 0;
  ArdOptions opts_{};
  la::Workspace* ws_ = nullptr;  // per-rank scratch arena (not owned; may be null)
  la::index_t n_ = 0;   // global block rows
  la::index_t m_ = 0;   // block size
  la::index_t lo_ = 0;  // first local block row
  la::index_t hi_ = 0;  // one past last local block row

  /// The segment, factored in place from the caller's rows (which it
  /// borrows for the A_i); also holds the corner spikes its neighbours
  /// read (V iff lo > 0, W iff hi < N) on their support.
  btds::ThomasFactorization thomas_;
  la::Matrix f_pre_;    ///< F = A_lo S_pre C_{lo-1} (empty on rank 0)
  la::Matrix g_suf_;    ///< G = C_{hi-1} P_suf A_hi (empty on rank P-1)
  la::LuFactors k_;     ///< LU of the interface matrix K (empty when P = 1)

  /// This segment's two-port (kept for update()); its a_first and c_last
  /// are the segment's boundary couplings A_lo and C_hi-1 (zero on rows 0
  /// and N-1, where the corners of the spike not computed stay zero too).
  TwoPort tp_;
  CachedScan<TwoPortOp> fwd_;
  CachedScan<TwoPortOpReversed> bwd_;
};

}  // namespace ardbt::core
