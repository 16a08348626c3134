#include "src/btds/thomas.hpp"

#include <algorithm>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/btds/distributed.hpp"
#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/smallblock/kernels.hpp"
#include "src/la/smallblock/smallblock.hpp"
#include "src/la/workspace.hpp"
#include "src/par/pool.hpp"

namespace ardbt::btds {
namespace {

/// v[i] for the signed block and column indices used throughout.
template <typename V>
auto& at(V& v, index_t i) {
  return v[static_cast<std::size_t>(i)];
}

/// The support rule's per-column state for one spike: each column's
/// cutoff DBL_MIN * t_c (0, which never cuts, for a NaN, infinite or zero
/// tip) and whether the column is already dead.
class ColumnCutoff {
 public:
  explicit ColumnCutoff(la::ConstMatrixView tip)
      : thr_(static_cast<std::size_t>(tip.cols()), 0.0),
        dead_(static_cast<std::size_t>(tip.cols()), 0),
        live_(tip.cols()) {
    for (index_t r = 0; r < tip.rows(); ++r) {
      for (index_t c = 0; c < tip.cols(); ++c) {
        at(thr_, c) = std::max(at(thr_, c), std::abs(tip(r, c)));
      }
    }
    for (double& t : thr_) t = std::isfinite(t) ? DBL_MIN * t : 0.0;
  }

  /// Apply the rule to the next block row away from the tip: a column
  /// whose entries here are all below its cutoff dies, and every dead
  /// column is set to +0 in `row`, which keeps its subnormal tail out of
  /// the arithmetic of the rows the live columns still need. Returns
  /// false once no column is live — the row is outside the support. Each
  /// column's fate depends on that column alone.
  bool keep(la::MatrixView row) {
    for (index_t c = 0; c < row.cols(); ++c) {
      char& dead = at(dead_, c);
      if (!dead) {
        dead = 1;
        for (index_t r = 0; r < row.rows() && dead; ++r) dead = std::abs(row(r, c)) < at(thr_, c);
        live_ -= dead;
      }
      if (dead) {
        for (index_t r = 0; r < row.rows(); ++r) row(r, c) = 0.0;
      }
    }
    return live_ > 0;
  }

 private:
  std::vector<double> thr_;
  std::vector<char> dead_;
  index_t live_;
};

}  // namespace

/// The fused corner-spike sweep, one code path for the fixed-M and
/// generic kernels and both pivot kinds: `mul_sub(a, b, c)` is c -= a b
/// and `solve(i, b)` is b := D'_i^{-1} b, each exactly the operation the
/// matching solve sweep runs, so a spike on full support is bit-identical
/// to solve_inplace() on its unit load. Every new spike row starts as +0,
/// the value the solve sweeps accumulate into.
template <typename MulSub, typename Solve>
class ThomasFactorization::SpikeSweep {
 public:
  SpikeSweep(ThomasFactorization& f, MulSub mul_sub, Solve solve)
      : f_(f), mm_(static_cast<std::size_t>(f.m_ * f.m_)), mul_sub_(mul_sub), solve_(solve) {}

  /// V's forward sweep at block row i, run right after D'_i is factored
  /// (and A_i copied): z_0 = D'_0^{-1} I, z_i = -D'_i^{-1} A_i z_{i-1}.
  /// The z_i are V's block rows until the backward sweep corrects them.
  void forward(index_t i) {
    if (v_done_) return;
    const index_t m = f_.m_;
    if (i == 0) {
      // Reserved, not touched: pages past the support are never written.
      f_.v_.reserve(static_cast<std::size_t>(f_.n_) * mm_);
    }
    f_.v_.resize(static_cast<std::size_t>(i + 1) * mm_);
    la::MatrixView z = block(f_.v_, i);
    if (i == 0) {
      for (index_t k = 0; k < m; ++k) z(k, k) = 1.0;
    } else {
      mul_sub_(f_.lower_view(i - 1), block(f_.v_, i - 1), z);
    }
    solve_(i, z);
    if (i == 0) v_cut_.emplace(z);
    if (v_cut_->keep(z)) {
      f_.v_rows_ = i + 1;
    } else {
      v_done_ = true;
      f_.v_.resize(static_cast<std::size_t>(i) * mm_);
    }
  }

  /// After the factor loop: W's tip W_{N-1} = D'_{N-1}^{-1} I, then one
  /// walk over the G_i from the bottom that runs W's backward sweep
  /// W_i = -G_i W_{i+1} while W is live and V's V_i = z_i - G_i V_{i+1}
  /// inside V's support.
  void finish() {
    const index_t n = f_.n_;
    const index_t m = f_.m_;
    f_.w_.reserve(static_cast<std::size_t>(n) * mm_);
    f_.w_.resize(mm_);
    la::MatrixView tip = block(f_.w_, 0);
    for (index_t k = 0; k < m; ++k) tip(k, k) = 1.0;
    solve_(n - 1, tip);
    f_.w_rows_ = 1;
    ColumnCutoff w_cut(tip);
    bool w_live = true;
    for (index_t i = n - 2; i >= 0; --i) {
      if (w_live) {
        const index_t k = f_.w_rows_;
        f_.w_.resize(static_cast<std::size_t>(k + 1) * mm_);
        la::MatrixView wi = block(f_.w_, k);
        mul_sub_(f_.g_view(i), block(f_.w_, k - 1), wi);
        if (w_cut.keep(wi)) {
          f_.w_rows_ = k + 1;
        } else {
          w_live = false;
          f_.w_.resize(static_cast<std::size_t>(k) * mm_);
        }
      }
      if (i + 1 < f_.v_rows_) mul_sub_(f_.g_view(i), block(f_.v_, i + 1), block(f_.v_, i));
    }
    // Subnormal entries (at most the last rows of a support) are stored as
    // +0 once the sweeps no longer read them, so solves never multiply
    // by one and every normal entry keeps its swept value.
    for (std::vector<double>* s : {&f_.v_, &f_.w_}) {
      for (double& x : *s) {
        if (x != 0.0 && std::abs(x) < DBL_MIN) x = 0.0;
      }
      s->shrink_to_fit();
    }
  }

 private:
  la::MatrixView block(std::vector<double>& s, index_t k) const {
    return la::MatrixView(s.data() + static_cast<std::size_t>(k) * mm_, f_.m_, f_.m_);
  }

  ThomasFactorization& f_;
  std::size_t mm_;
  MulSub mul_sub_;
  Solve solve_;
  std::optional<ColumnCutoff> v_cut_;
  bool v_done_ = false;
};

void ThomasFactorization::pivot_solve(index_t i, la::MatrixView b) const {
  if (pivot_ == PivotKind::kLu) {
    if (slab_) {
      la::lu_solve_inplace(pivot_lu_view(i), {pivot_piv(i), static_cast<std::size_t>(m_)}, b);
    } else {
      la::lu_solve_inplace(pivot_lu_[static_cast<std::size_t>(i)], b);
    }
  } else {
    la::cholesky_solve_inplace(pivot_chol_[static_cast<std::size_t>(i)], b);
  }
}

la::ConstMatrixView ThomasFactorization::lower_view(index_t i) const {
  return slab_ ? la::ConstMatrixView(lower_base(i), m_, m_)
               : lower_[static_cast<std::size_t>(i)].view();
}

la::ConstMatrixView ThomasFactorization::g_view(index_t i) const {
  return slab_ ? la::ConstMatrixView(g_base(i), m_, m_) : g_[static_cast<std::size_t>(i)].view();
}

la::ConstMatrixView ThomasFactorization::pivot_lu_view(index_t i) const {
  return slab_ ? la::ConstMatrixView(lu_base(i), m_, m_)
               : pivot_lu_[static_cast<std::size_t>(i)].lu.view();
}

const la::index_t* ThomasFactorization::pivot_piv(index_t i) const {
  return slab_ ? piv_.get() + i * m_ : pivot_lu_[static_cast<std::size_t>(i)].piv.data();
}

template <index_t M, typename Sys>
void ThomasFactorization::factor_slab(const Sys& t, index_t lo, bool spikes) {
  namespace sb = la::smallblock;
  const index_t n = n_;
  constexpr std::size_t kBlock = static_cast<std::size_t>(M) * M;
  slab_ = true;
  // Deliberately uninitialized (make_unique_for_overwrite): the sweep
  // writes every entry — couplings and diagonals are memcpy'd into their
  // final slots before the in-place factorization touches them, so
  // zero-filling here would only add a full pass over the slab.
  slab_store_ = std::make_unique_for_overwrite<double[]>(static_cast<std::size_t>(3 * n - 2) *
                                                         kBlock);
  piv_ = std::make_unique_for_overwrite<la::index_t[]>(static_cast<std::size_t>(n) * M);

  // Compile-time-sized block copy: the source Matrix and the slab slot
  // are both contiguous, and a constant byte count lets the compiler
  // expand the memcpy inline instead of an out-of-line call per block.
  const auto copy_block = [](double* dst, la::ConstMatrixView src) {
    std::memcpy(dst, src.data(), kBlock * sizeof(double));
  };
  SpikeSweep sweep(
      *this,
      [](la::ConstMatrixView a, la::ConstMatrixView b, la::MatrixView c) {
        sb::gemm_kernel<M>(-1.0, a, b, c);
      },
      [this](index_t i, la::MatrixView b) {
        sb::lu_solve_view_kernel<M>(pivot_lu_view(i), pivot_piv(i), b);
      });

  // The same recurrence as factor_blocks() below, with every block a view
  // into the contiguous slab: the pivot LU factors in place (no Matrix or
  // pivot-vector allocation per block) and the couplings are copied once,
  // straight from the caller's rows, into their final location.
  // Arithmetic and operation order match the per-block path exactly, so
  // factors — and later solves — are bit-identical across representations.
  copy_block(slab_store_.get(), t.diag(lo).view());
  for (index_t i = 0; i < n; ++i) {
    la::MatrixView lui(slab_store_.get() + static_cast<std::size_t>(i) * kBlock, M, M);
    la::index_t* piv = piv_.get() + i * M;
    const la::LuInPlaceInfo d = sb::lu_factor_view_kernel<M>(lui, piv);
    if (!d.ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, "btds::thomas_factor", i,
                                      static_cast<std::int64_t>(d.info - 1), d.growth);
    }
    diag_.observe(d.min_pivot_abs, d.max_pivot_abs, i);
    if (spikes) sweep.forward(i);
    if (i + 1 < n) {
      la::MatrixView gi(const_cast<double*>(g_base(i)), M, M);
      copy_block(gi.data(), t.upper(lo + i).view());
      sb::lu_solve_view_kernel<M>(lui, piv, gi);
      la::MatrixView ai(const_cast<double*>(lower_base(i)), M, M);
      copy_block(ai.data(), t.lower(lo + i + 1).view());
      la::MatrixView next(slab_store_.get() + static_cast<std::size_t>(i + 1) * kBlock, M, M);
      copy_block(next.data(), t.diag(lo + i + 1).view());
      sb::gemm_kernel<M>(-1.0, ai, gi, next);
    }
  }
  if (spikes) sweep.finish();
}

template <typename Sys>
void ThomasFactorization::factor_blocks(const Sys& t, index_t lo, bool spikes) {
  const index_t n = n_;
  g_.reserve(static_cast<std::size_t>(n - 1));
  lower_.reserve(static_cast<std::size_t>(n - 1));
  SpikeSweep sweep(
      *this,
      [](la::ConstMatrixView a, la::ConstMatrixView b, la::MatrixView c) {
        la::gemm(-1.0, a, b, 1.0, c);
      },
      [this](index_t i, la::MatrixView b) { pivot_solve(i, b); });

  Matrix pivot = t.diag(lo);  // D'_0 = D_0
  for (index_t i = 0; i < n; ++i) {
    if (pivot_ == PivotKind::kLu) {
      la::LuFactors lu = la::lu_factor(std::move(pivot));
      if (!lu.ok()) {
        throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, "btds::thomas_factor",
                                        i, static_cast<std::int64_t>(lu.info - 1), lu.growth);
      }
      diag_.observe(lu.min_pivot_abs, lu.max_pivot_abs, i);
      pivot_lu_.push_back(std::move(lu));
    } else {
      la::CholeskyFactors chol = la::cholesky_factor(pivot.view());
      if (!chol.ok()) {
        const double growth = chol.min_pivot_abs > 0.0 && chol.max_pivot_abs > 0.0
                                  ? chol.max_pivot_abs / chol.min_pivot_abs
                                  : std::numeric_limits<double>::infinity();
        throw fault::SingularPivotError(fault::ErrorCode::kNonSpdPivot, "btds::thomas_factor",
                                        i, static_cast<std::int64_t>(chol.info - 1), growth);
      }
      diag_.observe(chol.min_pivot_abs, chol.max_pivot_abs, i);
      pivot_chol_.push_back(std::move(chol));
    }
    if (spikes) sweep.forward(i);
    if (i + 1 < n) {
      // G_i = D'_i^{-1} C_i, then D'_{i+1} = D_{i+1} - A_{i+1} G_i.
      Matrix g = la::to_matrix(t.upper(lo + i).view());
      pivot_solve(i, g.view());
      pivot = t.diag(lo + i + 1);
      la::gemm(-1.0, t.lower(lo + i + 1).view(), g.view(), 1.0, pivot.view());
      g_.push_back(std::move(g));
      lower_.push_back(t.lower(lo + i + 1));
    }
  }
  if (spikes) sweep.finish();
}

template <typename Sys>
ThomasFactorization ThomasFactorization::factor_rows(const Sys& t, index_t lo, index_t n,
                                                     PivotKind pivot, bool spikes) {
  const index_t m = t.block_size();
  ThomasFactorization f;
  f.n_ = n;
  f.m_ = m;
  f.pivot_ = pivot;
  if (pivot == PivotKind::kLu && la::smallblock::enabled() && la::smallblock::dispatchable(m)) {
    la::smallblock::dispatch(m, [&](auto tag) {
      constexpr index_t kM = decltype(tag)::value;
      f.factor_slab<kM>(t, lo, spikes);
    });
  } else {
    f.factor_blocks(t, lo, spikes);
  }
  return f;
}

ThomasFactorization ThomasFactorization::factor(const BlockTridiag& t, PivotKind pivot) {
  return factor_rows(t, 0, t.num_blocks(), pivot, false);
}

template <typename Sys>
ThomasFactorization ThomasFactorization::factor_segment(const Sys& t, index_t lo, index_t n,
                                                        PivotKind pivot) {
  return factor_rows(t, lo, n, pivot, true);
}

template ThomasFactorization ThomasFactorization::factor_segment(const BlockTridiag&, index_t,
                                                                 index_t, PivotKind);
template ThomasFactorization ThomasFactorization::factor_segment(const LocalBlockTridiag&,
                                                                 index_t, index_t, PivotKind);

template <index_t M>
void ThomasFactorization::solve_panel_fixed(la::MatrixView x) const {
  const index_t n = n_;
  const index_t w = x.cols();
  namespace sb = la::smallblock;

  // Same sweeps as solve_panel with the per-block M-dispatch hoisted out
  // of the loops: each gemm here has beta == 1 (scale_c is a no-op) and
  // every pivot LU was verified ok() at factor time, so the kernels can
  // run back to back. Per-element operation order matches the generic
  // path exactly — results are bit-identical.
  for (index_t i = 0; i < n; ++i) {
    la::MatrixView xi = x.block(i * M, 0, M, w);
    if (i > 0) sb::gemm_kernel<M>(-1.0, lower_view(i - 1), x.block((i - 1) * M, 0, M, w), xi);
    sb::lu_solve_view_kernel<M>(pivot_lu_view(i), pivot_piv(i), xi);
  }
  for (index_t i = n - 2; i >= 0; --i) {
    la::MatrixView xi = x.block(i * M, 0, M, w);
    sb::gemm_kernel<M>(-1.0, g_view(i), x.block((i + 1) * M, 0, M, w), xi);
  }
}

void ThomasFactorization::solve_panel(la::MatrixView x) const {
  const index_t n = n_;
  const index_t m = m_;
  const index_t w = x.cols();

  if (pivot_ == PivotKind::kLu && la::smallblock::enabled() &&
      la::smallblock::dispatchable(m)) {
    la::smallblock::dispatch(m, [&](auto tag) {
      constexpr index_t kM = decltype(tag)::value;
      solve_panel_fixed<kM>(x);
    });
    return;
  }

  // Forward sweep: y_i = b_i - A_i z_{i-1}, z_i = D'_i^{-1} y_i.
  // z is accumulated directly in x.
  for (index_t i = 0; i < n; ++i) {
    la::MatrixView xi = x.block(i * m, 0, m, w);
    if (i > 0) la::gemm(-1.0, lower_view(i - 1), x.block((i - 1) * m, 0, m, w), 1.0, xi);
    pivot_solve(i, xi);
  }
  // Backward sweep: x_i = z_i - G_i x_{i+1}.
  for (index_t i = n - 2; i >= 0; --i) {
    la::gemm(-1.0, g_view(i), x.block((i + 1) * m, 0, m, w), 1.0, x.block(i * m, 0, m, w));
  }
}

Matrix ThomasFactorization::solve(const Matrix& b, par::Pool* pool, la::Workspace* ws) const {
  Matrix x = la::ws_acquire(ws, b.rows(), b.cols());
  la::copy(b.view(), x.view());
  solve_inplace(x.view(), pool);
  return x;
}

void ThomasFactorization::solve_inplace(la::MatrixView x, par::Pool* pool) const {
  assert(x.rows() == n_ * m_);
  if (pool != nullptr && pool->threads() > 1 && x.cols() >= 2) {
    // Column panels are independent; strided views make each panel solve
    // zero-copy, and per-column operation order matches the serial path.
    pool->parallel_for(
        0, x.cols(),
        [&](std::int64_t c0, std::int64_t c1) {
          solve_panel(x.block(0, static_cast<index_t>(c0), x.rows(),
                              static_cast<index_t>(c1 - c0)));
        },
        "thomas.solve");
  } else {
    solve_panel(x);
  }
}

la::ConstMatrixView ThomasFactorization::v_block(index_t i) const {
  assert(i >= 0 && i < v_rows_);
  return la::ConstMatrixView(v_.data() + static_cast<std::size_t>(i * m_ * m_), m_, m_);
}

la::ConstMatrixView ThomasFactorization::w_block(index_t i) const {
  assert(i >= w_first() && i < n_);
  return la::ConstMatrixView(w_.data() + static_cast<std::size_t>((n_ - 1 - i) * m_ * m_), m_,
                             m_);
}

Matrix ThomasFactorization::v_corner(index_t i) const {
  return i < v_rows_ ? la::to_matrix(v_block(i)) : Matrix(m_, m_);
}

Matrix ThomasFactorization::w_corner(index_t i) const {
  return i >= w_first() ? la::to_matrix(w_block(i)) : Matrix(m_, m_);
}

double ThomasFactorization::factor_flops(index_t n, index_t m, PivotKind pivot) {
  // Per interior row: one pivot factorization (2/3 m^3 for LU, 1/3 m^3
  // for Cholesky), one m-RHS solve (2 m^3), one gemm (2 m^3).
  const double dn = static_cast<double>(n);
  const double dm = static_cast<double>(m);
  const double pivot_share = pivot == PivotKind::kLu ? 2.0 / 3.0 : 1.0 / 3.0;
  return dn * (pivot_share + 2.0 + 2.0) * dm * dm * dm;
}

double ThomasFactorization::solve_flops(index_t n, index_t m, index_t r) {
  // Per row: one gemm forward, one LU solve, one gemm backward.
  const double dn = static_cast<double>(n);
  const double dm = static_cast<double>(m);
  const double dr = static_cast<double>(r);
  return dn * 6.0 * dm * dm * dr;
}

double ThomasFactorization::spike_flops(index_t n, index_t m) {
  // The dense model count (factor_segment() computes only the support):
  // V: a full M-column solve (6 M^3 per row). W: one pivot solve on the
  // last row plus one backward gemm per row, counted like solve_flops as
  // 2 M^3 per row.
  return solve_flops(n, m, m) + 2.0 * static_cast<double>(n) * static_cast<double>(m * m * m);
}

std::size_t ThomasFactorization::storage_bytes() const {
  std::size_t doubles = v_.size() + w_.size();
  for (const auto& lu : pivot_lu_) doubles += static_cast<std::size_t>(lu.lu.size());
  for (const auto& ch : pivot_chol_) doubles += static_cast<std::size_t>(ch.l.size());
  for (const auto& g : g_) doubles += static_cast<std::size_t>(g.size());
  for (const auto& a : lower_) doubles += static_cast<std::size_t>(a.size());
  if (slab_) {
    const std::size_t block = static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);
    doubles += static_cast<std::size_t>(3 * n_ - 2) * block;
    return doubles * sizeof(double) +
           static_cast<std::size_t>(n_ * m_) * sizeof(la::index_t);
  }
  return doubles * sizeof(double);
}

Matrix thomas_solve(const BlockTridiag& t, const Matrix& b) {
  return ThomasFactorization::factor(t).solve(b);
}

}  // namespace ardbt::btds
