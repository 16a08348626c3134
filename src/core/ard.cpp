#include "src/core/ard.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/smallblock/kernels.hpp"
#include "src/la/workspace.hpp"
#include "src/par/pool.hpp"

namespace ardbt::core {
namespace {

using btds::ThomasFactorization;
using la::Matrix;

/// Product a * b * c of three M x M blocks (the interface couplings
/// F = A_first S_pre C_pre and G = C_last P_suf A_suf).
Matrix triple_product(const Matrix& a, const Matrix& b, const Matrix& c, la::Workspace* ws) {
  const la::index_t m = a.rows();
  Matrix t = la::ws_acquire(ws, m, m);
  la::gemm(1.0, a.view(), b.view(), 0.0, t.view());
  Matrix out(m, m);
  la::gemm(1.0, t.view(), c.view(), 0.0, out.view());
  la::ws_release(ws, std::move(t));
  return out;
}

}  // namespace

void ArdFactorization::local_phase(mpsim::Comm& comm, const btds::BlockTridiag& sys) {
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "ard.factor.local");
  const la::index_t m = m_;
  const la::index_t nloc = hi_ - lo_;

  // --- 1+2. Factor the segment in place in the caller's rows, the corner
  // spikes its neighbours read computed in the same sweep and kept on
  // their support: V = A_seg^{-1} E_first when a rank lies above, W =
  // A_seg^{-1} E_last when one lies below. Their first and last block rows
  // are the corner blocks P, Q, R, S of the segment's inverse — its
  // two-port; a corner of an absent spike stays zero, and only ever meets
  // the zero coupling of that side. The flop charge is the dense count of
  // the spikes computed, so ChargedFlops virtual times do not depend on
  // how far the spikes decay.
  thomas_ = ThomasFactorization::factor_segment(sys, lo_, nloc, opts_.pivot);
  tp_ = TwoPort{.P = thomas_.v_corner(0),
                .Q = thomas_.w_corner(0),
                .R = thomas_.v_corner(nloc - 1),
                .S = thomas_.w_corner(nloc - 1),
                .a_first = (lo_ > 0) ? sys.lower(lo_) : Matrix(m, m),
                .c_last = (hi_ < n_) ? sys.upper(hi_ - 1) : Matrix(m, m)};
  comm.charge_flops(ThomasFactorization::factor_flops(nloc, m, opts_.pivot) +
                    ThomasFactorization::spike_flops(lo_, nloc, n_, m));
}

void ArdFactorization::global_phase(mpsim::Comm& comm) {
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "ard.factor.global");
  const la::index_t m = m_;

  // --- 3. Forward and backward two-port prefix scans over the segment
  // two-ports (the log P term), round-interleaved so each one's O(M^3)
  // merges run while the other's message is in flight.
  typename CachedScan<TwoPortOp>::Factoring ff(comm, ScanDirection::kForward,
                                               TwoPortOp::Context{m, ws_}, tp_,
                                               ard_tags::kFwdFactor);
  typename CachedScan<TwoPortOpReversed>::Factoring fb(comm, ScanDirection::kBackward,
                                                       TwoPortOp::Context{m, ws_}, tp_,
                                                       ard_tags::kBwdFactor);
  run_interleaved(comm, ff, fb);
  fwd_ = std::move(ff).finish();
  bwd_ = std::move(fb).finish();

  // --- 4. The interface system. The scans' incoming two-ports cover every
  // row before and after the segment; their exact boundary relations
  //   x_lo-1 = -S_pre C_lo-1 x_lo    + q_pre
  //   x_hi   = -P_suf A_hi   x_hi-1  + p_suf
  // couple the segment to the rest of the system only through
  //   F = A_lo S_pre C_lo-1,   G = C_hi-1 P_suf A_hi,
  // and the segment's corners give the interface matrix
  //   K = I - [[F P, F Q], [G R, G S]]
  // (a side without a neighbour drops its block row and column). K is
  // LU-factored with partial pivoting under either pivot kind.
  const TwoPort* pre = fwd_.has_incoming() ? &fwd_.incoming_mat() : nullptr;
  const TwoPort* suf = bwd_.has_incoming() ? &bwd_.incoming_mat() : nullptr;
  f_pre_ = pre ? triple_product(tp_.a_first, pre->S, pre->c_last, ws_) : Matrix();
  g_suf_ = suf ? triple_product(tp_.c_last, suf->P, suf->a_first, ws_) : Matrix();
  const la::index_t npre = pre ? m : 0;
  const la::index_t k = npre + (suf ? m : 0);
  k_ = la::LuFactors{};
  double flops = 0.0;
  if (k > 0) {
    Matrix kmat = Matrix::identity(k);
    if (pre) {
      la::gemm(-1.0, f_pre_.view(), tp_.P.view(), 1.0, kmat.block(0, 0, m, m));
      if (suf) la::gemm(-1.0, f_pre_.view(), tp_.Q.view(), 1.0, kmat.block(0, m, m, m));
    }
    if (suf) {
      if (pre) la::gemm(-1.0, g_suf_.view(), tp_.R.view(), 1.0, kmat.block(npre, 0, m, m));
      la::gemm(-1.0, g_suf_.view(), tp_.S.view(), 1.0, kmat.block(npre, npre, m, m));
    }
    const double sides = static_cast<double>(k / m);
    flops += (2.0 * sides + sides * sides) * la::gemm_flops(m, m, m) + la::lu_factor_flops(k);
    k_ = la::lu_factor(std::move(kmat));
    if (!k_.ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, "core::ard_interface",
                                      lo_, static_cast<std::int64_t>(k_.info - 1), k_.growth);
    }
  }
  comm.charge_flops(flops);
}

ArdFactorization ArdFactorization::factor(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                                          const btds::RowPartition& part, const ArdOptions& opts,
                                          la::Workspace* ws) {
  ArdFactorization f;
  f.rank_ = comm.rank();
  f.opts_ = opts;
  f.ws_ = ws;
  f.n_ = sys.num_blocks();
  f.m_ = sys.block_size();
  f.lo_ = part.begin(comm.rank());
  f.hi_ = part.end(comm.rank());
  if (part.nranks() != comm.size()) {
    throw fault::InvalidArgumentError("core::ArdFactorization::factor",
                                      "the partition is for " + std::to_string(part.nranks()) +
                                          " ranks, the run has " + std::to_string(comm.size()));
  }
  if (f.hi_ - f.lo_ < 1) {
    throw fault::InvalidArgumentError("core::ArdFactorization::factor",
                                      "every rank needs at least one block row (N >= P)");
  }
  btds::require_rows(sys, f.lo_, f.hi_ - f.lo_, "core::ArdFactorization::factor");
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "ard.factor");
  f.local_phase(comm, sys);
  f.global_phase(comm);
  if constexpr (obs::kTraceCompiledIn) {
    // Breakdown marks make suspect factorizations visible in traces even
    // when the driver's policy accepts them; pure comparisons, no flops.
    if (comm.trace() != nullptr &&
        f.diagnostics().growth() > opts.breakdown_growth_threshold) {
      comm.trace()->instant(obs::SpanKind::kMark, "ard.breakdown", comm.now_sample(), -1, 0);
    }
  }
  return f;
}

void ArdFactorization::update(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                              bool rows_changed) {
  btds::require_rows(sys, lo_, hi_ - lo_, "core::ArdFactorization::update");
  if (rows_changed) {
    local_phase(comm, sys);
  } else {
    thomas_.rebind(sys);
  }
  global_phase(comm);
}

fault::PivotDiagnostics ArdFactorization::diagnostics() const {
  // The segment pivots carry the matrix's own scale; an interface matrix
  // is the identity minus a coupling term, so its pivots are read against
  // 1. Each source's growth is judged on its own and the worst one wins.
  fault::PivotDiagnostics d;
  d.merge(thomas_.pivot_diagnostics());
  if (k_.n() > 0) {
    fault::PivotDiagnostics k;
    k.observe(k_.min_pivot_abs, std::max(k_.max_pivot_abs, 1.0), lo_);
    if (k.growth() > d.growth()) d = k;
  }
  return d;
}

void ArdFactorization::solve(mpsim::Comm& comm, const la::Matrix& b, la::Matrix& x) const {
  btds::require_rhs(n_ * m_, b, x, "core::ArdFactorization::solve");
  const la::MatrixView x_local = x.block(lo_ * m_, 0, (hi_ - lo_) * m_, b.cols());
  la::copy(b.block(lo_ * m_, 0, (hi_ - lo_) * m_, b.cols()), x_local);
  solve_inplace(comm, x_local);
}

void ArdFactorization::apply_spikes(la::ConstMatrixView gh, la::MatrixView x,
                                    par::Pool* pool) const {
  const la::index_t m = m_;
  const la::index_t cols = x.cols();
  const ThomasFactorization& t = thomas_;
  // Only the spikes' support is touched: V g on rows [0, v_end), W h on
  // rows [w_first, rows); outside them the spikes are zero, and a spike
  // the segment has no neighbour for was never computed. The loop runs
  // over the union of the two ranges, skipping the gap between them.
  const la::index_t rows = hi_ - lo_;
  const la::index_t v_end = t.v_rows();
  const la::index_t w_first = t.w_first();
  // g is gh's first block row and h its last (one row when one side).
  const la::ConstMatrixView g = v_end > 0 ? gh.block(0, 0, m, cols) : la::ConstMatrixView();
  const la::ConstMatrixView h =
      w_first < rows ? gh.block(gh.rows() - m, 0, m, cols) : la::ConstMatrixView();
  const la::index_t resume = std::max(v_end, w_first);
  // Block rows are independent; each element sees the same two k-ascending
  // accumulations (V_j g, then W_j h) however the rows are split.
  par::parallel_for(
      pool, 0, v_end + rows - resume,
      [&](std::int64_t ub, std::int64_t ue) {
        la::smallblock::with_kernels(m, [&](auto k) {
          for (la::index_t u = static_cast<la::index_t>(ub); u < ue; ++u) {
            const la::index_t j = u < v_end ? u : resume + (u - v_end);
            const la::MatrixView xj = x.block(j * m, 0, m, cols);
            if (j < v_end) k.mul_sub(t.v_block(j), g, xj);
            if (j >= w_first) k.mul_sub(t.w_block(j), h, xj);
          }
        });
      },
      "ard.spike.update");
}

void ArdFactorization::solve_inplace(mpsim::Comm& comm, la::MatrixView x_local) const {
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "ard.solve");
  const la::index_t m = m_;
  const la::index_t nloc = hi_ - lo_;
  const la::index_t r = x_local.cols();
  if (x_local.rows() != nloc * m) {
    throw fault::ShapeMismatchError("core::ArdFactorization::solve_inplace",
                                    "x_local.rows() == nloc*M", x_local.rows(), nloc * m);
  }
  const TwoPortOp::Context ctx{m, ws_};
  // Boundary data comes from the cross-rank scans; a serial solve is one
  // Thomas solve.
  const bool reduce = comm.size() > 1;

  // RHS panels of chunk_cols columns (0 or >= R: one panel). Each panel
  // is a column view of x_local, which holds b on entry: the segment
  // solves it in place and the spike corrections are applied there.
  const la::index_t chunk =
      (opts_.chunk_cols > 0 && opts_.chunk_cols < r) ? opts_.chunk_cols : r;
  struct Panel {
    la::MatrixView x;  ///< this panel's columns of x_local
    typename CachedScan<TwoPortOp>::Replay fwd;
    typename CachedScan<TwoPortOpReversed>::Replay bwd;
  };
  std::vector<Panel> panels;
  for (la::index_t c0 = 0; c0 < r; c0 += chunk) {
    Panel p;
    p.x = x_local.block(0, c0, nloc * m, std::min(chunk, r - c0));
    panels.push_back(std::move(p));
  }

  /// The panel's segment vector part (p, q): the first and last block rows
  /// of y = A_seg^{-1} b, already in p.x.
  const auto local_reduce = [&](const Panel& p) -> TwoPortVec {
    const la::index_t cols = p.x.cols();
    TwoPortVec v{.p = la::ws_acquire(ws_, m, cols), .q = la::ws_acquire(ws_, m, cols)};
    la::copy(p.x.block(0, 0, m, cols), v.p.view());
    la::copy(p.x.block((nloc - 1) * m, 0, m, cols), v.q.view());
    return v;
  };

  /// A-step: solve the segment in place, take its vector part, and put
  /// both scans' round-0 sends on the wire. No receives — so a rank runs
  /// this for panel k+1 while panel k's replies are still in flight.
  const auto start_panel = [&](Panel& p) {
    thomas_.solve_inplace(p.x, comm.pool());
    comm.charge_flops(ThomasFactorization::solve_flops(nloc, m, p.x.cols()));
    if (!reduce) return;
    TwoPortVec v = local_reduce(p);
    TwoPortVec v_fwd = local_reduce(p);
    // Dynamic tags: one pair per in-flight panel, registry-enforced. The
    // schedule is SPMD-symmetric, so every rank picks the same pair.
    p.fwd = typename CachedScan<TwoPortOp>::Replay(fwd_, comm, std::move(v_fwd), comm.next_tag());
    p.bwd = typename CachedScan<TwoPortOpReversed>::Replay(bwd_, comm, std::move(v),
                                                           comm.next_tag());
  };

  /// C-step: harvest the replays' boundary vector parts, solve the
  /// interface system
  ///   K [g; h] = [A_lo q_pre - F p; C_hi-1 p_suf - G q]
  /// for the boundary loads g = A_lo x_lo-1 and h = C_hi-1 x_hi, and
  /// correct y in place: x = y - V g - W h.
  const auto finish_panel = [&](Panel& p) {
    const la::index_t cols = p.x.cols();
    std::optional<TwoPortVec> pre = std::move(p.fwd).take_result();
    std::optional<TwoPortVec> suf = std::move(p.bwd).take_result();
    Matrix gh;
    double flops = 0.0;
    const la::index_t k = k_.n();
    if (k > 0) {
      gh = la::ws_acquire(ws_, k, cols);
      const la::index_t npre = pre ? m : 0;
      if (pre) {
        la::MatrixView g = gh.block(0, 0, m, cols);
        la::gemm(1.0, tp_.a_first.view(), pre->q.view(), 0.0, g);
        la::gemm(-1.0, f_pre_.view(), p.x.block(0, 0, m, cols), 1.0, g);
        flops += la::gemm_flops(m, cols, m) * (2.0 + static_cast<double>(nloc));
      }
      if (suf) {
        la::MatrixView h = gh.block(npre, 0, m, cols);
        la::gemm(1.0, tp_.c_last.view(), suf->p.view(), 0.0, h);
        la::gemm(-1.0, g_suf_.view(), p.x.block((nloc - 1) * m, 0, m, cols), 1.0, h);
        flops += la::gemm_flops(m, cols, m) * (2.0 + static_cast<double>(nloc));
      }
      la::lu_solve_inplace(k_, gh.view());
      flops += la::lu_solve_flops(k, cols);
    }
    if (pre) TwoPortOp::recycle_vec(ctx, std::move(*pre));
    if (suf) TwoPortOp::recycle_vec(ctx, std::move(*suf));
    if (k > 0) apply_spikes(gh.view(), p.x, comm.pool());
    la::ws_release(ws_, std::move(gh));
    comm.charge_flops(flops);
  };

  // Software pipeline: panel k+1's A-step (local solve + round-0 sends,
  // no receives) runs before panel k's replays are drained, so its
  // compute is what the receiver's clock advances on instead of charged
  // waits. Within a panel the forward and backward replays interleave.
  for (std::size_t k = 0; k < panels.size(); ++k) {
    if (k == 0) start_panel(panels[0]);
    if (k + 1 < panels.size()) start_panel(panels[k + 1]);
    run_interleaved(comm, panels[k].fwd, panels[k].bwd);
    finish_panel(panels[k]);
  }
}

std::size_t ArdFactorization::storage_bytes() const {
  const auto mat_bytes = [](const la::Matrix& a) {
    return static_cast<std::size_t>(a.size()) * sizeof(double);
  };
  const auto scan_cache = [&](std::size_t rounds) {
    // Up to two merge events per round, four M x M matrices each.
    return rounds * 2 * 4 * static_cast<std::size_t>(m_ * m_) * sizeof(double);
  };
  // Everything the solve replay retains, at its actual size: the segment
  // factorization with its spikes' support, the couplings and interface
  // LU, the two-port and the scan caches, so budget-based admission sees
  // the true footprint.
  return mat_bytes(tp_.P) + mat_bytes(tp_.Q) + mat_bytes(tp_.R) + mat_bytes(tp_.S) +
         mat_bytes(tp_.a_first) + mat_bytes(tp_.c_last) + scan_cache(fwd_.num_rounds()) +
         scan_cache(bwd_.num_rounds()) + thomas_.storage_bytes() + mat_bytes(f_pre_) +
         mat_bytes(g_suf_) + mat_bytes(k_.lu) + k_.piv.size() * sizeof(la::index_t);
}

}  // namespace ardbt::core
