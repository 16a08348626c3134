#include "src/core/ard.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

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

/// v[i] for the int lane/panel indices used throughout.
template <typename V>
auto& at(V& v, int i) {
  return v[static_cast<std::size_t>(i)];
}

}  // namespace

template <typename Fn>
void ArdFactorization::for_each_lane(mpsim::Comm& comm, const char* name, Fn&& fn) const {
  const int L = static_cast<int>(lanes_.size());
  if (L == 1) {
    fn(0, comm.pool());
    return;
  }
  par::parallel_for(
      comm.pool(), 0, L,
      [&](std::int64_t lb, std::int64_t le) {
        for (std::int64_t li = lb; li < le; ++li) fn(static_cast<int>(li), nullptr);
      },
      name);
}

template <typename SysView>
void ArdFactorization::local_phase(mpsim::Comm& comm, const SysView& sys) {
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "ard.factor.local");
  const la::index_t m = m_;
  const la::index_t nloc = hi_ - lo_;
  const int L = static_cast<int>(
      std::clamp<la::index_t>(static_cast<la::index_t>(opts_.pipeline.lanes), 1, nloc));

  // --- 1+2. Split the segment into L lanes (usually one) and factor each
  // in place in the caller's rows, its corner spikes
  // [V W] = A_lane^{-1} [E_first E_last] computed in the same sweep and
  // kept on their support. Their first and last block rows are the corner
  // blocks P, Q, R, S of the lane's inverse — its two-port. Several lanes
  // run in parallel on the pool; the flop charge stays on the rank thread
  // and is the dense count, so ChargedFlops virtual times depend neither
  // on --threads nor on how far the spikes decay.
  lanes_.clear();
  lanes_.resize(static_cast<std::size_t>(L));
  std::vector<TwoPort> tps(static_cast<std::size_t>(L));
  double flops = 0.0;
  for (int li = 0; li < L; ++li) {
    const auto [b, e] = par::Pool::chunk_bounds(0, nloc, li, L);
    at(lanes_, li).lo = b;
    at(lanes_, li).hi = e;
    flops += ThomasFactorization::factor_flops(e - b, m, opts_.pivot) +
             ThomasFactorization::spike_flops(e - b, m);
  }
  for_each_lane(comm, "ard.lane.factor", [&](int li, par::Pool*) {
    Lane& ln = at(lanes_, li);
    const la::index_t rows = ln.hi - ln.lo;
    const la::index_t gfirst = lo_ + ln.lo;
    const la::index_t glast = lo_ + ln.hi - 1;
    ln.thomas = ThomasFactorization::factor_segment(sys, gfirst, rows, opts_.pivot);
    ln.a_first = (gfirst > 0) ? sys.lower(gfirst) : Matrix(m, m);
    ln.c_last = (glast + 1 < n_) ? sys.upper(glast) : Matrix(m, m);
    TwoPort& tp = at(tps, li);
    tp.P = ln.thomas.v_corner(0);
    tp.Q = ln.thomas.w_corner(0);
    tp.R = ln.thomas.v_corner(rows - 1);
    tp.S = ln.thomas.w_corner(rows - 1);
    tp.a_first = ln.a_first;
    tp.c_last = ln.c_last;
  });
  comm.charge_flops(flops);

  // Chain the lane two-ports into the rank two-port (serial, deterministic
  // association), caching every merge so solve can replay the chains with
  // vector parts. fpre_[i] covers lanes [0, i); bsuf_[i] covers [i, L).
  fpre_.assign(static_cast<std::size_t>(L), TwoPort{});
  bsuf_.assign(static_cast<std::size_t>(L), TwoPort{});
  fchain_cache_.assign(static_cast<std::size_t>(L), TwoPortCache{});
  bchain_cache_.assign(static_cast<std::size_t>(L), TwoPortCache{});
  TwoPort cur = std::move(tps.front());
  for (int i = 1; i < L; ++i) {
    at(fpre_, i) = std::move(cur);
    cur = merge_twoport(at(fpre_, i), at(tps, i), at(fchain_cache_, i), comm, ws_);
  }
  tp_ = std::move(cur);
  if (L > 1) {
    TwoPort scur = std::move(tps.back());
    for (int i = L - 2; i >= 1; --i) {
      at(bsuf_, i + 1) = std::move(scur);
      scur = merge_twoport(at(tps, i), at(bsuf_, i + 1), at(bchain_cache_, i), comm, ws_);
    }
    bsuf_[1] = std::move(scur);
  }
}

void ArdFactorization::global_phase(mpsim::Comm& comm) {
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "ard.factor.global");
  const la::index_t m = m_;
  const int L = static_cast<int>(lanes_.size());

  // --- 3. Forward and backward two-port prefix scans over the rank
  // two-port (the log P term), round-interleaved so each one's O(M^3)
  // merges run while the other's message is in flight. The wire protocol
  // and round count depend on P only, never on the lanes.
  typename CachedScan<TwoPortOp>::Factoring ff(comm, ScanDirection::kForward,
                                               TwoPortOp::Context{m, ws_}, tp_,
                                               ard_tags::kFwdFactor);
  typename CachedScan<TwoPortOpReversed>::Factoring fb(comm, ScanDirection::kBackward,
                                                       TwoPortOp::Context{m, ws_}, tp_,
                                                       ard_tags::kBwdFactor);
  run_interleaved(comm, ff, fb);
  fwd_ = std::move(ff).finish();
  bwd_ = std::move(fb).finish();

  // --- 4. Per lane, the interface system. The prefix covering every row
  // before lane i is the cross-rank prefix merged with the local chain of
  // lanes [0, i), and symmetrically for the suffix; with one lane they are
  // just the scans' incoming two-ports. Their exact boundary relations
  //   x_first-1 = -S_pre C_pre x_first + q_pre
  //   x_last+1  = -P_suf A_suf x_last  + p_suf
  // couple the lane to the rest of the system only through
  //   F = A_first S_pre C_pre,   G = C_last P_suf A_suf,
  // and the lane's corners give the interface matrix
  //   K = I - [[F P, F Q], [G R, G S]]
  // (a side without a neighbour drops its block row and column). K is
  // LU-factored with partial pivoting under either pivot kind. The mix
  // merges are cached so solve can replay them per panel.
  pre_mix_cache_.assign(static_cast<std::size_t>(L), TwoPortCache{});
  suf_mix_cache_.assign(static_cast<std::size_t>(L), TwoPortCache{});
  double flops = 0.0;
  for (int i = 0; i < L; ++i) {
    Lane& ln = at(lanes_, i);

    TwoPort pre_mix;
    const TwoPort* pre = nullptr;
    if (fwd_.has_incoming()) {
      if (i == 0) {
        pre = &fwd_.incoming_mat();
      } else {
        pre_mix = merge_twoport(fwd_.incoming_mat(), at(fpre_, i), at(pre_mix_cache_, i), comm,
                                ws_);
        pre = &pre_mix;
      }
    } else if (i > 0) {
      pre = &at(fpre_, i);
    }
    TwoPort suf_mix;
    const TwoPort* suf = nullptr;
    if (bwd_.has_incoming()) {
      if (i == L - 1) {
        suf = &bwd_.incoming_mat();
      } else {
        suf_mix = merge_twoport(at(bsuf_, i + 1), bwd_.incoming_mat(), at(suf_mix_cache_, i),
                                comm, ws_);
        suf = &suf_mix;
      }
    } else if (i + 1 < L) {
      suf = &at(bsuf_, i + 1);
    }

    ln.f_pre = pre ? triple_product(ln.a_first, pre->S, pre->c_last, ws_) : Matrix();
    ln.g_suf = suf ? triple_product(ln.c_last, suf->P, suf->a_first, ws_) : Matrix();
    const la::index_t npre = pre ? m : 0;
    const la::index_t k = npre + (suf ? m : 0);
    ln.k = la::LuFactors{};
    if (k == 0) continue;
    const la::index_t last = ln.hi - ln.lo - 1;
    Matrix kmat = Matrix::identity(k);
    if (pre) {
      la::gemm(-1.0, ln.f_pre.view(), ln.thomas.v_corner(0).view(), 1.0, kmat.block(0, 0, m, m));
      if (suf) {
        la::gemm(-1.0, ln.f_pre.view(), ln.thomas.w_corner(0).view(), 1.0,
                 kmat.block(0, m, m, m));
      }
    }
    if (suf) {
      if (pre) {
        la::gemm(-1.0, ln.g_suf.view(), ln.thomas.v_corner(last).view(), 1.0,
                 kmat.block(npre, 0, m, m));
      }
      la::gemm(-1.0, ln.g_suf.view(), ln.thomas.w_corner(last).view(), 1.0,
               kmat.block(npre, npre, m, m));
    }
    const double sides = static_cast<double>(k / m);
    flops += (2.0 * sides + sides * sides) * la::gemm_flops(m, m, m) + la::lu_factor_flops(k);
    ln.k = la::lu_factor(std::move(kmat));
    if (!ln.k.ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, "core::ard_interface",
                                      lo_ + ln.lo, static_cast<std::int64_t>(ln.k.info - 1),
                                      ln.k.growth);
    }
  }
  comm.charge_flops(flops);
}

template <typename SysView>
ArdFactorization ArdFactorization::factor_impl(mpsim::Comm& comm, const SysView& sys,
                                               const btds::RowPartition& part,
                                               const ArdOptions& opts, la::Workspace* ws) {
  ArdFactorization f;
  f.rank_ = comm.rank();
  f.opts_ = opts;
  f.ws_ = ws;
  f.n_ = sys.num_blocks();
  f.m_ = sys.block_size();
  f.lo_ = part.begin(comm.rank());
  f.hi_ = part.end(comm.rank());
  assert(part.nranks() == comm.size());
  if (f.hi_ - f.lo_ < 1) {
    throw fault::InvalidArgumentError("core::ArdFactorization::factor",
                                      "every rank needs at least one block row (N >= P)");
  }
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

ArdFactorization ArdFactorization::factor(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                                          const btds::RowPartition& part, const ArdOptions& opts,
                                          la::Workspace* ws) {
  return factor_impl(comm, sys, part, opts, ws);
}

ArdFactorization ArdFactorization::factor(mpsim::Comm& comm,
                                          const btds::LocalBlockTridiag& sys,
                                          const btds::RowPartition& part, const ArdOptions& opts,
                                          la::Workspace* ws) {
  assert(part.begin(comm.rank()) == sys.lo() && part.end(comm.rank()) == sys.hi());
  return factor_impl(comm, sys, part, opts, ws);
}

void ArdFactorization::update(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                              bool rows_changed) {
  if (rows_changed) local_phase(comm, sys);
  global_phase(comm);
}

void ArdFactorization::update(mpsim::Comm& comm, const btds::LocalBlockTridiag& sys,
                              bool rows_changed) {
  if (rows_changed) local_phase(comm, sys);
  global_phase(comm);
}

fault::PivotDiagnostics ArdFactorization::diagnostics() const {
  // The segment pivots carry the matrix's own scale; an interface matrix
  // is the identity minus a coupling term, so its pivots are read against
  // 1. Each source's growth is judged on its own and the worst one wins.
  fault::PivotDiagnostics d;
  for (const Lane& ln : lanes_) d.merge(ln.thomas.pivot_diagnostics());
  for (const Lane& ln : lanes_) {
    if (ln.k.n() == 0) continue;
    fault::PivotDiagnostics k;
    k.observe(ln.k.min_pivot_abs, std::max(ln.k.max_pivot_abs, 1.0), lo_ + ln.lo);
    if (k.growth() > d.growth()) d = k;
  }
  return d;
}

void ArdFactorization::solve(mpsim::Comm& comm, const la::Matrix& b, la::Matrix& x) const {
  assert(b.rows() == n_ * m_ && x.rows() == b.rows() && x.cols() == b.cols());
  const la::MatrixView x_local = x.block(lo_ * m_, 0, (hi_ - lo_) * m_, b.cols());
  la::copy(b.block(lo_ * m_, 0, (hi_ - lo_) * m_, b.cols()), x_local);
  solve_inplace(comm, x_local);
}

la::Matrix ArdFactorization::solve_local(mpsim::Comm& comm, const la::Matrix& b_local) const {
  Matrix x = b_local;
  solve_inplace(comm, x.view());
  return x;
}

void ArdFactorization::apply_spikes(const Lane& ln, la::ConstMatrixView gh, la::MatrixView x,
                                    par::Pool* pool) const {
  const la::index_t m = m_;
  const la::index_t cols = x.cols();
  const ThomasFactorization& t = ln.thomas;
  const bool has_g = !ln.f_pre.empty();
  const bool has_h = !ln.g_suf.empty();
  const la::ConstMatrixView g = has_g ? gh.block(0, 0, m, cols) : la::ConstMatrixView();
  const la::ConstMatrixView h = has_h ? gh.block(has_g ? m : 0, 0, m, cols) : la::ConstMatrixView();
  // Only the spikes' support is touched: V g on rows [0, v_end), W h on
  // rows [w_first, rows); outside them the spikes are zero. The loop runs
  // over the union of the two ranges, skipping the gap between them.
  const la::index_t rows = ln.hi - ln.lo;
  const la::index_t v_end = has_g ? t.v_rows() : 0;
  const la::index_t w_first = has_h ? t.w_first() : rows;
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
  assert(x_local.rows() == nloc * m);
  const TwoPortOp::Context ctx{m, ws_};
  const int L = static_cast<int>(lanes_.size());
  const auto lane_rows = [&](la::MatrixView v, const Lane& ln) {
    return v.block(ln.lo * m, 0, (ln.hi - ln.lo) * m, v.cols());
  };
  // Boundary data comes from the cross-rank scans (P > 1) and the local
  // lane chains (L > 1); a serial single-lane solve is one Thomas solve.
  const bool reduce = comm.size() > 1 || L > 1;

  // RHS panels of chunk_cols columns (0 or >= R: one panel). Each panel
  // is a column view of x_local, which holds b on entry: the lanes solve
  // it in place and the spike corrections are applied there.
  const la::index_t chunk = (opts_.pipeline.chunk_cols > 0 && opts_.pipeline.chunk_cols < r)
                                ? opts_.pipeline.chunk_cols
                                : r;
  struct Panel {
    la::MatrixView x;  ///< this panel's columns of x_local
    typename CachedScan<TwoPortOp>::Replay fwd;
    typename CachedScan<TwoPortOpReversed>::Replay bwd;
    std::vector<TwoPortVec> lpv;  ///< [i]: local prefix of lanes [0, i), i >= 1
    std::vector<TwoPortVec> lsv;  ///< [i]: local suffix of lanes [i, L), i >= 1
  };
  std::vector<Panel> panels;
  for (la::index_t c0 = 0; c0 < r; c0 += chunk) {
    Panel p;
    p.x = x_local.block(0, c0, nloc * m, std::min(chunk, r - c0));
    panels.push_back(std::move(p));
  }

  /// The panel's segment vector part: the first and last block rows of
  /// every lane's y = A_lane^{-1} b (already in p.x), chained by the serial
  /// replay of the factored lane chains, whose local prefixes and suffixes
  /// stay on the panel for finish_panel.
  const auto local_reduce = [&](Panel& p) -> TwoPortVec {
    const la::index_t cols = p.x.cols();
    std::vector<TwoPortVec> lv(static_cast<std::size_t>(L));
    for (int i = 0; i < L; ++i) {
      const Lane& ln = at(lanes_, i);
      at(lv, i) = TwoPortVec{.p = la::ws_acquire(ws_, m, cols), .q = la::ws_acquire(ws_, m, cols)};
      la::copy(p.x.block(ln.lo * m, 0, m, cols), at(lv, i).p.view());
      la::copy(p.x.block((ln.hi - 1) * m, 0, m, cols), at(lv, i).q.view());
    }
    if (L == 1) return std::move(lv.front());

    p.lpv.assign(static_cast<std::size_t>(L), TwoPortVec{});
    p.lsv.assign(static_cast<std::size_t>(L), TwoPortVec{});
    p.lpv[1] = std::move(lv.front());
    for (int i = 2; i < L; ++i) {
      at(p.lpv, i) =
          merge_twoport_vec(at(fchain_cache_, i - 1), at(p.lpv, i - 1), at(lv, i - 1), comm, ws_);
    }
    TwoPortVec v =
        merge_twoport_vec(at(fchain_cache_, L - 1), at(p.lpv, L - 1), lv.back(), comm, ws_);
    at(p.lsv, L - 1) = std::move(lv.back());
    for (int i = L - 2; i >= 1; --i) {
      at(p.lsv, i) =
          merge_twoport_vec(at(bchain_cache_, i), at(lv, i), at(p.lsv, i + 1), comm, ws_);
      TwoPortOp::recycle_vec(ctx, std::move(at(lv, i)));
    }
    return v;
  };

  /// A-step: solve every lane in place, run the rank-local reduction, and
  /// put both scans' round-0 sends on the wire. No receives — so a rank
  /// runs this for panel k+1 while panel k's replies are still in flight.
  const auto start_panel = [&](Panel& p) {
    const la::index_t cols = p.x.cols();
    for_each_lane(comm, "ard.lane.solve", [&](int li, par::Pool* lane_pool) {
      at(lanes_, li).thomas.solve_inplace(lane_rows(p.x, at(lanes_, li)), lane_pool);
    });
    double flops = 0.0;
    for (const Lane& ln : lanes_) flops += ThomasFactorization::solve_flops(ln.hi - ln.lo, m, cols);
    comm.charge_flops(flops);
    if (!reduce) return;
    TwoPortVec v = local_reduce(p);
    TwoPortVec v_fwd{.p = la::ws_acquire(ws_, m, v.p.cols()),
                     .q = la::ws_acquire(ws_, m, v.q.cols())};
    la::copy(v.p.view(), v_fwd.p.view());
    la::copy(v.q.view(), v_fwd.q.view());
    // Dynamic tags: one pair per in-flight panel, registry-enforced. The
    // schedule is SPMD-symmetric, so every rank picks the same pair.
    p.fwd = typename CachedScan<TwoPortOp>::Replay(fwd_, comm, std::move(v_fwd), comm.next_tag());
    p.bwd = typename CachedScan<TwoPortOpReversed>::Replay(bwd_, comm, std::move(v),
                                                           comm.next_tag());
  };

  /// C-step: harvest the replays; per lane, merge the effective boundary
  /// vector parts (cross-rank prefix/suffix with the local chains,
  /// replaying the factor-time mix caches), solve the interface system
  ///   K [g; h] = [A_first q_pre - F p; C_last p_suf - G q]
  /// for the boundary loads g = A_first x_first-1 and h = C_last x_last+1,
  /// and correct y in place: x = y - V g - W h.
  const auto finish_panel = [&](Panel& p) {
    const la::index_t cols = p.x.cols();
    std::optional<TwoPortVec> pre = std::move(p.fwd).take_result();
    std::optional<TwoPortVec> suf = std::move(p.bwd).take_result();
    std::vector<Matrix> gh(static_cast<std::size_t>(L));
    double flops = 0.0;
    for (int i = 0; i < L; ++i) {
      const Lane& ln = at(lanes_, i);
      const la::index_t rows = ln.hi - ln.lo;

      std::optional<TwoPortVec> pre_mix;
      const TwoPortVec* lo_rel = nullptr;
      if (pre) {
        if (i == 0) {
          lo_rel = &*pre;
        } else {
          pre_mix = merge_twoport_vec(at(pre_mix_cache_, i), *pre, at(p.lpv, i), comm, ws_);
          lo_rel = &*pre_mix;
        }
      } else if (i > 0) {
        lo_rel = &at(p.lpv, i);
      }
      std::optional<TwoPortVec> suf_mix;
      const TwoPortVec* hi_rel = nullptr;
      if (suf) {
        if (i == L - 1) {
          hi_rel = &*suf;
        } else {
          suf_mix = merge_twoport_vec(at(suf_mix_cache_, i), at(p.lsv, i + 1), *suf, comm, ws_);
          hi_rel = &*suf_mix;
        }
      } else if (i + 1 < L) {
        hi_rel = &at(p.lsv, i + 1);
      }

      const la::index_t k = ln.k.n();
      if (k > 0) {
        Matrix& rhs = at(gh, i);
        rhs = la::ws_acquire(ws_, k, cols);
        const la::index_t npre = lo_rel != nullptr ? m : 0;
        if (lo_rel != nullptr) {
          la::MatrixView g = rhs.block(0, 0, m, cols);
          la::gemm(1.0, ln.a_first.view(), lo_rel->q.view(), 0.0, g);
          la::gemm(-1.0, ln.f_pre.view(), p.x.block(ln.lo * m, 0, m, cols), 1.0, g);
          flops += la::gemm_flops(m, cols, m) * (2.0 + static_cast<double>(rows));
        }
        if (hi_rel != nullptr) {
          la::MatrixView h = rhs.block(npre, 0, m, cols);
          la::gemm(1.0, ln.c_last.view(), hi_rel->p.view(), 0.0, h);
          la::gemm(-1.0, ln.g_suf.view(), p.x.block((ln.hi - 1) * m, 0, m, cols), 1.0, h);
          flops += la::gemm_flops(m, cols, m) * (2.0 + static_cast<double>(rows));
        }
        la::lu_solve_inplace(ln.k, rhs.view());
        flops += la::lu_solve_flops(k, cols);
      }
      if (pre_mix) TwoPortOp::recycle_vec(ctx, std::move(*pre_mix));
      if (suf_mix) TwoPortOp::recycle_vec(ctx, std::move(*suf_mix));
    }
    if (pre) TwoPortOp::recycle_vec(ctx, std::move(*pre));
    if (suf) TwoPortOp::recycle_vec(ctx, std::move(*suf));
    for (int i = 1; i < static_cast<int>(p.lpv.size()); ++i) {
      TwoPortOp::recycle_vec(ctx, std::move(at(p.lpv, i)));
      TwoPortOp::recycle_vec(ctx, std::move(at(p.lsv, i)));
    }

    for_each_lane(comm, "ard.lane.update", [&](int li, par::Pool* lane_pool) {
      const Lane& ln = at(lanes_, li);
      if (ln.k.n() > 0) apply_spikes(ln, at(gh, li).view(), lane_rows(p.x, ln), lane_pool);
    });
    for (Matrix& g : gh) la::ws_release(ws_, std::move(g));
    comm.charge_flops(flops);
  };

  // Software pipeline: panel k+1's A-step (local reduction + round-0
  // sends, no receives) runs before panel k's replays are drained, so its
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
  const auto tp_size = [&](const TwoPort& t) {
    return mat_bytes(t.P) + mat_bytes(t.Q) + mat_bytes(t.R) + mat_bytes(t.S) +
           mat_bytes(t.a_first) + mat_bytes(t.c_last);
  };
  const auto cache_size = [&](const TwoPortCache& c) {
    return mat_bytes(c.x1) + mat_bytes(c.x2) + mat_bytes(c.x3) + mat_bytes(c.x4);
  };
  const auto scan_cache = [&](std::size_t rounds) {
    // Up to two merge events per round, four M x M matrices each.
    return rounds * 2 * 4 * static_cast<std::size_t>(m_ * m_) * sizeof(double);
  };
  // Everything the solve replay retains, at its actual size: the lane
  // factorizations with their spikes' support, couplings and interface
  // LUs, the rank two-port, the scan caches, and (with several lanes) the
  // local chains and merge caches, so budget-based admission sees the true
  // footprint.
  std::size_t bytes =
      tp_size(tp_) + scan_cache(fwd_.num_rounds()) + scan_cache(bwd_.num_rounds());
  for (const Lane& ln : lanes_) {
    bytes += ln.thomas.storage_bytes() + mat_bytes(ln.a_first) +
             mat_bytes(ln.c_last) + mat_bytes(ln.f_pre) + mat_bytes(ln.g_suf) +
             mat_bytes(ln.k.lu) + ln.k.piv.size() * sizeof(la::index_t);
  }
  for (const TwoPort& t : fpre_) bytes += tp_size(t);
  for (const TwoPort& t : bsuf_) bytes += tp_size(t);
  for (const TwoPortCache& c : fchain_cache_) bytes += cache_size(c);
  for (const TwoPortCache& c : bchain_cache_) bytes += cache_size(c);
  for (const TwoPortCache& c : pre_mix_cache_) bytes += cache_size(c);
  for (const TwoPortCache& c : suf_mix_cache_) bytes += cache_size(c);
  return bytes;
}

}  // namespace ardbt::core
