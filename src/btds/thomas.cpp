#include "src/btds/thomas.hpp"

#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/smallblock/kernels.hpp"
#include "src/la/smallblock/smallblock.hpp"
#include "src/la/workspace.hpp"
#include "src/par/pool.hpp"

namespace ardbt::btds {

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

template <index_t M>
void ThomasFactorization::factor_slab(const BlockTridiag& t) {
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

  // The same recurrence as the per-block path in factor() below, with
  // every block a view into the contiguous slab: the pivot LU factors in
  // place (no Matrix or pivot-vector allocation per block) and the
  // couplings are copied once into their final location. Arithmetic and
  // operation order match the per-block path exactly, so factors — and
  // later solves — are bit-identical across representations.
  copy_block(slab_store_.get(), t.diag(0).view());
  for (index_t i = 0; i < n; ++i) {
    la::MatrixView lui(slab_store_.get() + static_cast<std::size_t>(i) * kBlock, M, M);
    la::index_t* piv = piv_.get() + i * M;
    const la::LuInPlaceInfo d = sb::lu_factor_view_kernel<M>(lui, piv);
    if (!d.ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, "btds::thomas_factor", i,
                                      static_cast<std::int64_t>(d.info - 1), d.growth);
    }
    diag_.observe(d.min_pivot_abs, d.max_pivot_abs, i);
    if (i + 1 < n) {
      la::MatrixView gi(const_cast<double*>(g_base(i)), M, M);
      copy_block(gi.data(), t.upper(i).view());
      sb::lu_solve_view_kernel<M>(lui, piv, gi);
      la::MatrixView ai(const_cast<double*>(lower_base(i)), M, M);
      copy_block(ai.data(), t.lower(i + 1).view());
      la::MatrixView next(slab_store_.get() + static_cast<std::size_t>(i + 1) * kBlock, M, M);
      copy_block(next.data(), t.diag(i + 1).view());
      sb::gemm_kernel<M>(-1.0, ai, gi, next);
    }
  }
}

ThomasFactorization ThomasFactorization::factor(const BlockTridiag& t, PivotKind pivot_kind) {
  const index_t n = t.num_blocks();
  const index_t m = t.block_size();
  ThomasFactorization f;
  f.n_ = n;
  f.m_ = m;
  f.pivot_ = pivot_kind;
  if (pivot_kind == PivotKind::kLu && la::smallblock::enabled() &&
      la::smallblock::dispatchable(m)) {
    la::smallblock::dispatch(m, [&](auto tag) {
      constexpr index_t kM = decltype(tag)::value;
      f.factor_slab<kM>(t);
    });
    return f;
  }
  f.g_.reserve(static_cast<std::size_t>(n - 1));
  f.lower_.reserve(static_cast<std::size_t>(n - 1));

  Matrix pivot = t.diag(0);  // D'_0 = D_0
  for (index_t i = 0; i < n; ++i) {
    if (pivot_kind == PivotKind::kLu) {
      la::LuFactors lu = la::lu_factor(std::move(pivot));
      if (!lu.ok()) {
        throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, "btds::thomas_factor",
                                        i, static_cast<std::int64_t>(lu.info - 1), lu.growth);
      }
      f.diag_.observe(lu.min_pivot_abs, lu.max_pivot_abs, i);
      f.pivot_lu_.push_back(std::move(lu));
    } else {
      la::CholeskyFactors chol = la::cholesky_factor(pivot.view());
      if (!chol.ok()) {
        const double growth = chol.min_pivot_abs > 0.0 && chol.max_pivot_abs > 0.0
                                  ? chol.max_pivot_abs / chol.min_pivot_abs
                                  : std::numeric_limits<double>::infinity();
        throw fault::SingularPivotError(fault::ErrorCode::kNonSpdPivot, "btds::thomas_factor",
                                        i, static_cast<std::int64_t>(chol.info - 1), growth);
      }
      f.diag_.observe(chol.min_pivot_abs, chol.max_pivot_abs, i);
      f.pivot_chol_.push_back(std::move(chol));
    }
    if (i + 1 < n) {
      // G_i = D'_i^{-1} C_i, then D'_{i+1} = D_{i+1} - A_{i+1} G_i.
      Matrix g = la::to_matrix(t.upper(i).view());
      f.pivot_solve(i, g.view());
      pivot = t.diag(i + 1);
      la::gemm(-1.0, t.lower(i + 1).view(), g.view(), 1.0, pivot.view());
      f.g_.push_back(std::move(g));
      f.lower_.push_back(t.lower(i + 1));
    }
  }
  return f;
}

template <index_t M>
void ThomasFactorization::solve_panel_fixed(la::MatrixView x, index_t first) const {
  const index_t n = n_;
  const index_t w = x.cols();
  namespace sb = la::smallblock;

  // Same sweeps as solve_panel with the per-block M-dispatch hoisted out
  // of the loops: each gemm here has beta == 1 (scale_c is a no-op) and
  // every pivot LU was verified ok() at factor time, so the kernels can
  // run back to back. Per-element operation order matches the generic
  // path exactly — results are bit-identical.
  for (index_t i = first; i < n; ++i) {
    la::MatrixView xi = x.block(i * M, 0, M, w);
    if (i > first) {
      sb::gemm_kernel<M>(-1.0, lower_view(i - 1), x.block((i - 1) * M, 0, M, w), xi);
    }
    sb::lu_solve_view_kernel<M>(pivot_lu_view(i), pivot_piv(i), xi);
  }
  for (index_t i = n - 2; i >= 0; --i) {
    la::MatrixView xi = x.block(i * M, 0, M, w);
    sb::gemm_kernel<M>(-1.0, g_view(i), x.block((i + 1) * M, 0, M, w), xi);
  }
}

void ThomasFactorization::solve_panel(la::MatrixView x, index_t first) const {
  const index_t n = n_;
  const index_t m = m_;
  const index_t w = x.cols();

  if (pivot_ == PivotKind::kLu && la::smallblock::enabled() &&
      la::smallblock::dispatchable(m)) {
    la::smallblock::dispatch(m, [&](auto tag) {
      constexpr index_t kM = decltype(tag)::value;
      solve_panel_fixed<kM>(x, first);
    });
    return;
  }

  // Forward sweep: y_i = b_i - A_i z_{i-1}, z_i = D'_i^{-1} y_i.
  // z is accumulated directly in x; z_i = 0 for the zero rows i < first.
  for (index_t i = first; i < n; ++i) {
    la::MatrixView xi = x.block(i * m, 0, m, w);
    if (i > first) {
      la::gemm(-1.0, lower_view(i - 1), x.block((i - 1) * m, 0, m, w), 1.0, xi);
    }
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
  sweep_inplace(x, 0, pool);
}

Matrix ThomasFactorization::corner_spikes(par::Pool* pool) const {
  Matrix s(n_ * m_, 2 * m_);
  for (index_t i = 0; i < m_; ++i) {
    s(i, i) = 1.0;
    s((n_ - 1) * m_ + i, m_ + i) = 1.0;
  }
  sweep_inplace(s.block(0, 0, n_ * m_, m_), 0, pool);
  sweep_inplace(s.block(0, m_, n_ * m_, m_), n_ - 1, pool);
  return s;
}

void ThomasFactorization::sweep_inplace(la::MatrixView x, index_t first, par::Pool* pool) const {
  assert(x.rows() == n_ * m_);
  if (pool != nullptr && pool->threads() > 1 && x.cols() >= 2) {
    // Column panels are independent; strided views make each panel solve
    // zero-copy, and per-column operation order matches the serial path.
    pool->parallel_for(
        0, x.cols(),
        [&](std::int64_t c0, std::int64_t c1) {
          solve_panel(x.block(0, static_cast<index_t>(c0), x.rows(),
                              static_cast<index_t>(c1 - c0)),
                      first);
        },
        "thomas.solve");
  } else {
    solve_panel(x, first);
  }
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
  // V: a full M-column solve (6 M^3 per row). W: one pivot solve on the
  // last row plus one backward gemm per row, counted like solve_flops as
  // 2 M^3 per row.
  return solve_flops(n, m, m) + 2.0 * static_cast<double>(n) * static_cast<double>(m * m * m);
}

std::size_t ThomasFactorization::storage_bytes() const {
  std::size_t doubles = 0;
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
