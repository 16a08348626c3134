#pragma once

#include "src/core/scan.hpp"
#include "src/la/lu.hpp"
#include "src/la/matrix.hpp"
#include "src/la/workspace.hpp"

/// \file twoport.hpp
/// The stable prefix operator of the production solver: Schur-complement
/// "two-port" reduction of a contiguous block-row segment.
///
/// For a segment of rows [l..h], eliminating its interior exactly yields
///
///   x_l = -P A_l x_{l-1} - Q C_h x_{h+1} + p
///   x_h = -R A_l x_{l-1} - S C_h x_{h+1} + q
///
/// where P, Q, R, S are the corner blocks of the segment's own inverse
/// (first/last block rows and columns) and (p, q) are the corresponding
/// blocks of T_seg^{-1} b_seg. Two adjacent segments merge by eliminating
/// the two interface unknowns — an associative O(M^3) operation, so the
/// cross-rank combination is a parallel prefix (recursive doubling).
///
/// Why this operator and not raw transfer matrices: for block-diagonally-
/// dominant systems every block of a two-port is bounded (norms of corner
/// blocks of inverses decay with distance), and the interface system
/// K = I - P_R A S_L C is a small perturbation of the identity — merges
/// are unconditionally well-conditioned. The transfer-matrix prefix, by
/// contrast, loses one digit per ~(lambda_1/lambda_M) growth ratio of its
/// modes (experiments T3 and B-abl-scaling; the ablation lives in
/// bench/ablation/transfer_rd.hpp). Both are "recursive
/// doubling" in the paper's sense — prefix computations with
/// O(M^3 (N/P + log P)) work — but only this one survives N in the
/// thousands.
///
/// Right-hand-side separation (the ARD acceleration): the merge of
/// (P,Q,R,S) is RHS-independent; the merge of (p, q) only needs four
/// cached M x M combinations:
///   X1 = Q_L C K^{-1},  X2 = R_R A,  X3 = S_L C K^{-1},  X4 = P_R A,
///   t  = p_R - X4 q_L,
///   p' = p_L - X1 t,    q' = q_R - X2 (q_L - X3 t).

namespace ardbt::core {

using la::index_t;
using la::Matrix;

/// RHS-independent part of a segment's boundary reduction.
struct TwoPort {
  Matrix P, Q, R, S;  ///< corner blocks of T_seg^{-1} (each M x M)
  Matrix a_first;     ///< A of the segment's first row (zero on row 0)
  Matrix c_last;      ///< C of the segment's last row (zero on row N-1)
};

/// RHS-dependent part: first/last blocks of T_seg^{-1} b_seg.
struct TwoPortVec {
  Matrix p, q;  ///< each M x R
};

/// Cached matrices of one merge event (see file comment).
struct TwoPortCache {
  Matrix x1, x2, x3, x4;
};

/// Merge two adjacent segments' matrix parts (`left` covers lower rows),
/// filling `cache` for later vector merges. Throws on a singular
/// interface system (cannot happen for block-diagonally-dominant input).
/// A non-null `ws` sources the merge temporaries (and the cached
/// right-division results) from the workspace arena.
TwoPort merge_twoport(const TwoPort& left, const TwoPort& right, TwoPortCache& cache,
                      mpsim::Comm& comm, la::Workspace* ws = nullptr);

/// Merge the vector parts of the same (left, right) pair. With a `ws` the
/// scratch and the result both come from the arena (the caller recycles
/// the result when consumed); results are bit-identical either way.
TwoPortVec merge_twoport_vec(const TwoPortCache& cache, const TwoPortVec& left,
                             const TwoPortVec& right, mpsim::Comm& comm,
                             la::Workspace* ws = nullptr);

/// CachedScan policy running the two-port prefix.
struct TwoPortOp {
  struct Context {
    index_t m = 0;                 ///< block size
    la::Workspace* ws = nullptr;   ///< arena for merge scratch / replay vectors
  };
  using Mat = TwoPort;
  using Vec = TwoPortVec;
  using Cache = TwoPortCache;

  static Mat merge_mat(const Context& ctx, const Mat& left, const Mat& right, Cache& cache,
                       mpsim::Comm& comm) {
    return merge_twoport(left, right, cache, comm, ctx.ws);
  }
  static Vec merge_vec(const Context& ctx, const Cache& cache, const Vec& left, const Vec& right,
                       mpsim::Comm& comm) {
    return merge_twoport_vec(cache, left, right, comm, ctx.ws);
  }
  /// CachedScan recycle hook: consumed replay vectors return their
  /// storage to the arena (no-op without one).
  static void recycle_vec(const Context& ctx, Vec&& v) {
    la::ws_release(ctx.ws, std::move(v.p));
    la::ws_release(ctx.ws, std::move(v.q));
  }
  static std::vector<std::byte> ser_mat(const Context& ctx, const Mat& m);
  static Mat des_mat(const Context& ctx, std::span<const std::byte> bytes);
  static std::vector<std::byte> ser_vec(const Context& ctx, const Vec& v);
  static Vec des_vec(const Context& ctx, std::span<const std::byte> bytes);
};

/// CachedScan policy for the *backward* two-port prefix: in a backward
/// scan "lower sequence position" means *higher* block rows, so the
/// row-space roles of the operands are swapped before merging.
struct TwoPortOpReversed : TwoPortOp {
  static Mat merge_mat(const Context& ctx, const Mat& left, const Mat& right, Cache& cache,
                       mpsim::Comm& comm) {
    return merge_twoport(right, left, cache, comm, ctx.ws);
  }
  static Vec merge_vec(const Context& ctx, const Cache& cache, const Vec& left, const Vec& right,
                       mpsim::Comm& comm) {
    return merge_twoport_vec(cache, right, left, comm, ctx.ws);
  }
};

}  // namespace ardbt::core
