#include "src/btds/banded_lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ardbt::btds {

BandedLuFactorization BandedLuFactorization::factor(const BlockTridiag& t) {
  require_rows(t, 0, t.num_blocks(), "btds::BandedLuFactorization::factor");
  const index_t n = t.num_blocks();
  const index_t m = t.block_size();
  BandedLuFactorization f;
  f.nn_ = n * m;
  f.m_ = m;
  f.kl_ = 2 * m - 1;
  f.ku_ = 2 * m - 1;
  const index_t kl = f.kl_;
  const index_t ku = f.ku_;
  const index_t nn = f.nn_;
  f.ab_ = Matrix(nn, 2 * kl + ku + 1);
  f.piv_.resize(static_cast<std::size_t>(nn));
  Matrix& ab = f.ab_;

  // Assemble: scalar row i = I*m + r of block row I touches the columns of
  // blocks I-1, I, I+1.
  double a_max = 0.0;
  for (index_t bi = 0; bi < n; ++bi) {
    for (index_t r = 0; r < m; ++r) {
      const index_t i = bi * m + r;
      const auto put = [&](const Matrix& blk, index_t bj) {
        for (index_t c = 0; c < m; ++c) {
          const index_t j = bj * m + c;
          const double v = blk(r, c);
          ab(i, j - i + kl) = v;
          a_max = std::max(a_max, std::abs(v));
        }
      };
      if (bi > 0) put(t.lower(bi), bi - 1);
      put(t.diag(bi), bi);
      if (bi + 1 < n) put(t.upper(bi), bi + 1);
    }
  }

  // Elimination with partial pivoting; multipliers overwrite the
  // sub-diagonal window entries and stay unswapped (gbtrf convention), so
  // the solve applies the swaps interleaved with the forward sweep.
  double u_max = 0.0;
  for (index_t k = 0; k < nn; ++k) {
    const index_t ilast = std::min(nn - 1, k + kl);
    index_t p = k;
    double pmag = std::abs(ab(k, kl));
    for (index_t i = k + 1; i <= ilast; ++i) {
      const double mag = std::abs(ab(i, k - i + kl));
      if (mag > pmag) {
        pmag = mag;
        p = i;
      }
    }
    if (pmag == 0.0) {
      f.diag_.singular_info = static_cast<int>(k + 1);
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, "btds::banded_lu_factor",
                                      k / m, k, f.diag_.growth());
    }
    f.piv_[static_cast<std::size_t>(k)] = p;
    const index_t jlast = std::min(nn - 1, k + ku + kl);
    if (p != k) {
      for (index_t j = k; j <= jlast; ++j) {
        std::swap(ab(k, j - k + kl), ab(p, j - p + kl));
      }
    }
    f.diag_.observe(pmag, pmag, k / m);
    const double pivot = ab(k, kl);
    for (index_t j = k; j <= jlast; ++j) u_max = std::max(u_max, std::abs(ab(k, j - k + kl)));
    for (index_t i = k + 1; i <= ilast; ++i) {
      const double l = ab(i, k - i + kl) / pivot;
      ab(i, k - i + kl) = l;
      if (l == 0.0) continue;
      for (index_t j = k + 1; j <= jlast; ++j) {
        ab(i, j - i + kl) -= l * ab(k, j - k + kl);
      }
    }
  }
  if (a_max > 0.0) {
    // Element growth ||U||_max / ||A||_max — the classic stability proxy.
    f.diag_.max_pivot_abs = std::max(f.diag_.max_pivot_abs, u_max);
  }
  return f;
}

Matrix BandedLuFactorization::solve(const Matrix& b) const {
  require_rhs(nn_, b, "btds::BandedLuFactorization::solve");
  const index_t nn = nn_;
  const index_t kl = kl_;
  const index_t ku = ku_;
  const index_t w = b.cols();
  Matrix x = b;

  // Forward: apply the row swaps and L in elimination order.
  for (index_t k = 0; k < nn; ++k) {
    const index_t p = piv_[static_cast<std::size_t>(k)];
    if (p != k) {
      for (index_t c = 0; c < w; ++c) std::swap(x(k, c), x(p, c));
    }
    const index_t ilast = std::min(nn - 1, k + kl);
    for (index_t i = k + 1; i <= ilast; ++i) {
      const double l = ab_(i, k - i + kl);
      if (l == 0.0) continue;
      for (index_t c = 0; c < w; ++c) x(i, c) -= l * x(k, c);
    }
  }
  // Backward: U x = y.
  for (index_t k = nn - 1; k >= 0; --k) {
    const double inv = 1.0 / ab_(k, kl);
    for (index_t c = 0; c < w; ++c) x(k, c) *= inv;
    const index_t ifirst = std::max<index_t>(0, k - ku - kl);
    for (index_t i = ifirst; i < k; ++i) {
      const double u = ab_(i, k - i + kl);
      if (u == 0.0) continue;
      for (index_t c = 0; c < w; ++c) x(i, c) -= u * x(k, c);
    }
  }
  return x;
}

double BandedLuFactorization::factor_flops(index_t n, index_t m) {
  // Per step: kl multiplier rows, each updating ku + kl columns.
  const double nn = static_cast<double>(n) * static_cast<double>(m);
  const double kl = 2.0 * static_cast<double>(m) - 1.0;
  return nn * 2.0 * kl * (2.0 * kl);
}

double BandedLuFactorization::solve_flops(index_t n, index_t m, index_t r) {
  // Per step and RHS: kl forward updates plus ku + kl backward updates.
  const double nn = static_cast<double>(n) * static_cast<double>(m);
  const double kl = 2.0 * static_cast<double>(m) - 1.0;
  return nn * 2.0 * (3.0 * kl) * static_cast<double>(r);
}

std::size_t BandedLuFactorization::storage_bytes() const {
  return static_cast<std::size_t>(ab_.size()) * sizeof(double) +
         piv_.size() * sizeof(index_t);
}

Matrix banded_lu_solve(const BlockTridiag& t, const Matrix& b) {
  return BandedLuFactorization::factor(t).solve(b);
}

}  // namespace ardbt::btds
