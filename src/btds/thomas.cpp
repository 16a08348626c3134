#include "src/btds/thomas.hpp"

#include <algorithm>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "src/la/blas1.hpp"
#include "src/la/cholesky.hpp"
#include "src/la/smallblock/kernels.hpp"
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
/// cutoff DBL_EPSILON * t_c, working precision relative to the column's
/// tip (0, which never cuts, for a NaN, infinite or zero tip), and whether
/// the column is already dead. The cut is a fixed function of the input,
/// so every thread count, chunking and replay sees the same support.
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
    for (double& t : thr_) t = std::isfinite(t) ? DBL_EPSILON * t : 0.0;
  }

  /// Apply the rule to the next block row away from the tip: a column
  /// whose entries here are all below its cutoff dies, and every dead
  /// column is set to +0 in `row`, which keeps its subnormal tail out of
  /// the arithmetic of the rows the live columns still need. Returns
  /// false once no column is live — the row is outside the support. Each
  /// column's fate depends on that column alone. What is dropped is below
  /// DBL_EPSILON * t_c where it dies and decays from there; the bound on
  /// its effect is in docs/ALGORITHMS.md §4.
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

/// The fused corner-spike sweep, one code path for every kernel set and
/// both pivot kinds: it runs K::mul_sub (c -= a b) and pivot_solve<K>
/// (b := D'_i^{-1} b), exactly the operations the solve sweep runs, so a
/// spike on full support is bit-identical to solve_inplace() on its unit
/// load. Every new spike row starts as +0, the value the solve sweeps
/// accumulate into. It computes V only when `v` and W only when `w`.
template <typename K>
class ThomasFactorization::SpikeSweep {
 public:
  SpikeSweep(ThomasFactorization& f, bool v, bool w)
      : f_(f), mm_(static_cast<std::size_t>(f.m_ * f.m_)), v_done_(!v), w_(w) {}

  /// V's forward sweep at block row i, run right after D'_i is factored:
  /// z_0 = D'_0^{-1} I, z_i = -D'_i^{-1} A_i z_{i-1}, A_i read from the
  /// borrowed system.
  /// The z_i are V's block rows until the backward sweep corrects them.
  void forward(index_t i) {
    if (v_done_) return;
    const index_t m = f_.m_;
    f_.v_.resize(static_cast<std::size_t>(i + 1) * mm_);
    la::MatrixView z = block(f_.v_, i);
    if (i == 0) {
      for (index_t k = 0; k < m; ++k) z(k, k) = 1.0;
    } else {
      K::mul_sub(f_.lower_block(i - 1), block(f_.v_, i - 1), z);
    }
    f_.pivot_solve<K>(i, z);
    if (i == 0) v_cut_.emplace(z);
    if (v_cut_->keep(z)) {
      f_.v_rows_ = i + 1;
    } else {
      v_done_ = true;
      f_.v_.resize(static_cast<std::size_t>(i) * mm_);
    }
  }

  /// After the factor loop: W's tip W_{N-1} = D'_{N-1}^{-1} I (when W is
  /// computed), then one walk over the G_i from the bottom that runs W's
  /// backward sweep W_i = -G_i W_{i+1} while W is live and V's
  /// V_i = z_i - G_i V_{i+1} inside V's support.
  void finish() {
    const index_t n = f_.n_;
    const index_t m = f_.m_;
    std::optional<ColumnCutoff> w_cut;  // engaged while W is live
    if (w_) {
      f_.w_.resize(mm_);
      la::MatrixView tip = block(f_.w_, 0);
      for (index_t k = 0; k < m; ++k) tip(k, k) = 1.0;
      f_.pivot_solve<K>(n - 1, tip);
      f_.w_rows_ = 1;
      w_cut.emplace(tip);
    }
    for (index_t i = n - 2; i >= 0; --i) {
      if (w_cut) {
        const index_t k = f_.w_rows_;
        f_.w_.resize(static_cast<std::size_t>(k + 1) * mm_);
        la::MatrixView wi = block(f_.w_, k);
        K::mul_sub(f_.g_block(i), block(f_.w_, k - 1), wi);
        if (w_cut->keep(wi)) {
          f_.w_rows_ = k + 1;
        } else {
          w_cut.reset();
          f_.w_.resize(static_cast<std::size_t>(k) * mm_);
        }
      }
      if (i + 1 < f_.v_rows_) K::mul_sub(f_.g_block(i), block(f_.v_, i + 1), block(f_.v_, i));
    }
    // Subnormal entries (a live column may hold some next to an entry above
    // its cutoff, and a tip below DBL_MIN / DBL_EPSILON sweeps into them)
    // are stored as +0 once the sweeps no longer read them, so solves never
    // multiply by one and every normal entry keeps its swept value.
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
  std::optional<ColumnCutoff> v_cut_;
  bool v_done_;
  bool w_;
};

template <typename K>
void ThomasFactorization::factor_pivot(index_t i, la::MatrixView g) {
  const la::MatrixView d = pivot_block(i);
  if (pivot_ == PivotKind::kLu) {
    const la::LuInPlaceInfo f =
        g.cols() > 0 ? K::lu_factor_solve(d, pivots(i), g) : K::lu_factor(d, pivots(i));
    if (!f.ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, "btds::thomas_factor", i,
                                      static_cast<std::int64_t>(f.info - 1), f.growth);
    }
    diag_.observe(f.min_pivot_abs, f.max_pivot_abs, i);
  } else {
    const la::CholeskyInPlaceInfo f = la::cholesky_factor_inplace(d);
    if (!f.ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kNonSpdPivot, "btds::thomas_factor", i,
                                      static_cast<std::int64_t>(f.info - 1), f.growth());
    }
    diag_.observe(f.min_pivot_abs, f.max_pivot_abs, i);
    if (g.cols() > 0) la::cholesky_solve_inplace(d, g);
  }
}

template <typename K>
void ThomasFactorization::pivot_solve(index_t i, la::MatrixView b) const {
  if (pivot_ == PivotKind::kLu) {
    K::lu_solve(pivot_block(i), pivots(i), b);
  } else {
    la::cholesky_solve_inplace(pivot_block(i), b);
  }
}

template <typename K>
void ThomasFactorization::factor_sweep(const BlockTridiag& t, index_t lo) {
  const index_t n = n_;
  const std::size_t mm = static_cast<std::size_t>(K::order(m_) * K::order(m_));
  // Deliberately uninitialized (make_unique_for_overwrite): the sweep
  // writes every entry — couplings and diagonals are memcpy'd into their
  // final slots before the in-place factorization touches them.
  slab_size_ = static_cast<std::size_t>(2 * n - 1) * mm;
  blocks_ = std::make_unique_for_overwrite<double[]>(slab_size_);
  if (pivot_ == PivotKind::kLu) {
    piv_ = std::make_unique_for_overwrite<la::index_t[]>(static_cast<std::size_t>(n * m_));
  }
  // The caller's blocks and the slab slots are both contiguous; under
  // FixedKernels the byte count is a constant and the memcpy inlines.
  const auto copy_block = [mm](la::MatrixView dst, la::ConstMatrixView src) {
    std::memcpy(dst.data(), src.data(), mm * sizeof(double));
  };
  // V couples the segment to the rows above it, W to the rows below it;
  // a spike with no neighbour on its side is never read.
  SpikeSweep<K> sweep(*this, lo > 0, lo + n < t.num_blocks());

  // D'_0 = D_0; per row: factor D'_i with G_i = D'_i^{-1} C_i, then
  // D'_{i+1} = D_{i+1} - A_{i+1} G_i, every block but A_{i+1} in its slab
  // slot.
  copy_block(pivot_block(0), t.diag(lo).view());
  for (index_t i = 0; i < n; ++i) {
    const bool coupled = i + 1 < n;
    const la::MatrixView gi = coupled ? g_block(i) : la::MatrixView();
    if (coupled) copy_block(gi, t.upper(lo + i).view());
    factor_pivot<K>(i, gi);
    sweep.forward(i);
    if (coupled) {
      const la::MatrixView next = pivot_block(i + 1);
      copy_block(next, t.diag(lo + i + 1).view());
      K::mul_sub(lower_block(i), gi, next);
    }
  }
  sweep.finish();
}

ThomasFactorization ThomasFactorization::factor(const BlockTridiag& t, PivotKind pivot) {
  return factor_segment(t, 0, t.num_blocks(), pivot);
}

ThomasFactorization ThomasFactorization::factor_segment(const BlockTridiag& t, index_t lo,
                                                        index_t n, PivotKind pivot) {
  require_rows(t, lo, n, "btds::ThomasFactorization::factor");
  ThomasFactorization f;
  f.n_ = n;
  f.m_ = t.block_size();
  f.pivot_ = pivot;
  f.sys_ = &t;
  f.lo_ = lo;
  la::smallblock::with_kernels(f.m_, [&](auto k) { f.factor_sweep<decltype(k)>(t, lo); });
  return f;
}

void ThomasFactorization::rebind(const BlockTridiag& t) {
  if (t.block_size() != m_) {
    throw fault::InvalidArgumentError("btds::ThomasFactorization::rebind",
                                      "block order " + std::to_string(t.block_size()) +
                                          ", factored " + std::to_string(m_));
  }
  require_rows(t, lo_, n_, "btds::ThomasFactorization::rebind");
  sys_ = &t;
}

template <typename K>
void ThomasFactorization::solve_panel(la::MatrixView x) const {
  const index_t n = n_;
  const index_t m = K::order(m_);
  const index_t w = x.cols();
  // Forward sweep: y_i = b_i - A_i z_{i-1}, z_i = D'_i^{-1} y_i.
  // z is accumulated directly in x.
  for (index_t i = 0; i < n; ++i) {
    la::MatrixView xi = x.block(i * m, 0, m, w);
    if (i > 0) K::mul_sub(lower_block(i - 1), x.block((i - 1) * m, 0, m, w), xi);
    pivot_solve<K>(i, xi);
  }
  // Backward sweep: x_i = z_i - G_i x_{i+1}.
  for (index_t i = n - 2; i >= 0; --i) {
    K::mul_sub(g_block(i), x.block((i + 1) * m, 0, m, w), x.block(i * m, 0, m, w));
  }
}

void ThomasFactorization::check_rhs_rows(index_t rows) const {
  if (rows != n_ * m_) {
    throw fault::InvalidArgumentError("btds::ThomasFactorization::solve",
                                      "right-hand side has " + std::to_string(rows) +
                                          " rows, expected N*M = " + std::to_string(n_ * m_));
  }
}

Matrix ThomasFactorization::solve(const Matrix& b, par::Pool* pool, la::Workspace* ws) const {
  check_rhs_rows(b.rows());
  Matrix x = la::ws_acquire(ws, b.rows(), b.cols());
  la::copy(b.view(), x.view());
  solve_inplace(x.view(), pool);
  return x;
}

void ThomasFactorization::solve_inplace(la::MatrixView x, par::Pool* pool) const {
  check_rhs_rows(x.rows());
  la::smallblock::with_kernels(m_, [&](auto k) {
    using K = decltype(k);
    if (pool != nullptr && pool->threads() > 1 && x.cols() >= 2) {
      // Column panels are independent; strided views make each panel
      // solve zero-copy, and per-column operation order matches the
      // serial path.
      pool->parallel_for(
          0, x.cols(),
          [&](std::int64_t c0, std::int64_t c1) {
            solve_panel<K>(x.block(0, static_cast<index_t>(c0), x.rows(),
                                   static_cast<index_t>(c1 - c0)));
          },
          "thomas.solve");
    } else {
      solve_panel<K>(x);
    }
  });
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

double ThomasFactorization::spike_flops(index_t lo, index_t n, index_t num_blocks, index_t m) {
  // The dense model count (factor_segment() computes only the support):
  // V: a full M-column solve (6 M^3 per row). W: one pivot solve on the
  // last row plus one backward gemm per row, counted like solve_flops as
  // 2 M^3 per row.
  const double m3 = static_cast<double>(m * m * m);
  const double v = lo > 0 ? solve_flops(n, m, m) : 0.0;
  const double w = lo + n < num_blocks ? 2.0 * static_cast<double>(n) * m3 : 0.0;
  return v + w;
}

std::size_t ThomasFactorization::storage_bytes() const {
  const std::size_t piv = pivot_ == PivotKind::kLu ? static_cast<std::size_t>(n_ * m_) : 0;
  return (slab_size_ + v_.size() + w_.size()) * sizeof(double) + piv * sizeof(la::index_t);
}

Matrix thomas_solve(const BlockTridiag& t, const Matrix& b) {
  return ThomasFactorization::factor(t).solve(b);
}

}  // namespace ardbt::btds
