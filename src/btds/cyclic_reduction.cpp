#include "src/btds/cyclic_reduction.hpp"

#include "src/fault/status.hpp"
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/la/gemm.hpp"
#include "src/la/lu.hpp"

namespace ardbt::btds {
namespace {

/// One level of the reduction, expressed on plain block arrays so levels
/// can reuse the same code. `lower[0]` and `upper[n-1]` are unused.
struct Level {
  std::vector<Matrix> lower, diag, upper, rhs;

  index_t n() const { return static_cast<index_t>(diag.size()); }
};

std::vector<Matrix> solve_level(Level lv) {
  const index_t n = lv.n();
  if (n == 1) {
    la::LuFactors lu = la::lu_factor(std::move(lv.diag[0]));
    if (!lu.ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot,
                                      "btds::cyclic_reduction", -1,
                                      static_cast<std::int64_t>(lu.info - 1), lu.growth);
    }
    la::lu_solve_inplace(lu, lv.rhs[0].view());
    return {std::move(lv.rhs[0])};
  }

  const index_t n_odd = n / 2;
  const auto u = [](index_t i) { return static_cast<std::size_t>(i); };

  // Eliminate even unknowns: for each even e precompute
  //   Hm_e = D_e^{-1} A_e, Hp_e = D_e^{-1} C_e, h_e = D_e^{-1} b_e.
  const index_t n_even = n - n_odd;
  std::vector<Matrix> hm(u(n_even)), hp(u(n_even)), h(u(n_even));
  for (index_t j = 0; j < n_even; ++j) {
    const index_t e = 2 * j;
    la::LuFactors lu = la::lu_factor(std::move(lv.diag[u(e)]));
    if (!lu.ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot,
                                      "btds::cyclic_reduction", -1,
                                      static_cast<std::int64_t>(lu.info - 1), lu.growth);
    }
    if (e > 0) hm[u(j)] = la::lu_solve(lu, lv.lower[u(e)].view());
    if (e + 1 < n) hp[u(j)] = la::lu_solve(lu, lv.upper[u(e)].view());
    la::lu_solve_inplace(lu, lv.rhs[u(e)].view());
    h[u(j)] = std::move(lv.rhs[u(e)]);
  }

  // Build the half-size system on the odd unknowns.
  Level next;
  next.lower.resize(u(n_odd));
  next.diag.resize(u(n_odd));
  next.upper.resize(u(n_odd));
  next.rhs.resize(u(n_odd));
  for (index_t j = 0; j < n_odd; ++j) {
    const index_t o = 2 * j + 1;
    const index_t jlo = j;      // even neighbor o-1 == 2*j
    const index_t jhi = j + 1;  // even neighbor o+1 == 2*(j+1), if it exists
    const bool has_hi = o + 1 < n;

    Matrix d = std::move(lv.diag[u(o)]);
    la::gemm(-1.0, lv.lower[u(o)].view(), hp[u(jlo)].view(), 1.0, d.view());
    Matrix b = std::move(lv.rhs[u(o)]);
    la::gemm(-1.0, lv.lower[u(o)].view(), h[u(jlo)].view(), 1.0, b.view());
    if (has_hi) {
      la::gemm(-1.0, lv.upper[u(o)].view(), hm[u(jhi)].view(), 1.0, d.view());
      la::gemm(-1.0, lv.upper[u(o)].view(), h[u(jhi)].view(), 1.0, b.view());
    }
    next.diag[u(j)] = std::move(d);
    next.rhs[u(j)] = std::move(b);

    if (j > 0) {
      // A'_j = -A_o * Hm_{o-1}
      Matrix a(hm[u(jlo)].rows(), hm[u(jlo)].cols());
      la::gemm(-1.0, lv.lower[u(o)].view(), hm[u(jlo)].view(), 0.0, a.view());
      next.lower[u(j)] = std::move(a);
    }
    if (has_hi && o + 1 < n - 1) {
      // C'_j = -C_o * Hp_{o+1}
      Matrix c(hp[u(jhi)].rows(), hp[u(jhi)].cols());
      la::gemm(-1.0, lv.upper[u(o)].view(), hp[u(jhi)].view(), 0.0, c.view());
      next.upper[u(j)] = std::move(c);
    }
  }

  const std::vector<Matrix> x_odd = solve_level(std::move(next));

  // Back-substitute evens: x_e = h_e - Hm_e x_{e-1} - Hp_e x_{e+1}.
  std::vector<Matrix> x(u(n));
  for (index_t j = 0; j < n_odd; ++j) x[u(2 * j + 1)] = x_odd[u(j)];
  for (index_t j = 0; j < n_even; ++j) {
    const index_t e = 2 * j;
    Matrix xe = std::move(h[u(j)]);
    if (e > 0) la::gemm(-1.0, hm[u(j)].view(), x[u(e - 1)].view(), 1.0, xe.view());
    if (e + 1 < n) la::gemm(-1.0, hp[u(j)].view(), x[u(e + 1)].view(), 1.0, xe.view());
    x[u(e)] = std::move(xe);
  }
  return x;
}

}  // namespace

Matrix cyclic_reduction_solve(const BlockTridiag& t, const Matrix& b) {
  require_rows(t, 0, t.num_blocks(), "btds::cyclic_reduction_solve");
  const index_t n = t.num_blocks();
  const index_t m = t.block_size();
  require_rhs(t.dim(), b, "btds::cyclic_reduction_solve");

  Level lv;
  lv.lower.resize(static_cast<std::size_t>(n));
  lv.diag.resize(static_cast<std::size_t>(n));
  lv.upper.resize(static_cast<std::size_t>(n));
  lv.rhs.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    lv.diag[static_cast<std::size_t>(i)] = t.diag(i);
    if (i > 0) lv.lower[static_cast<std::size_t>(i)] = t.lower(i);
    if (i + 1 < n) lv.upper[static_cast<std::size_t>(i)] = t.upper(i);
    lv.rhs[static_cast<std::size_t>(i)] = la::to_matrix(block_row(b, i, m));
  }

  const std::vector<Matrix> blocks = solve_level(std::move(lv));
  Matrix x(b.rows(), b.cols());
  for (index_t i = 0; i < n; ++i) {
    la::copy(blocks[static_cast<std::size_t>(i)].view(), block_row(x, i, m));
  }
  return x;
}

double cyclic_reduction_flops(index_t num_blocks, index_t block_size, index_t num_rhs) {
  // Each level processes ~n/2^l rows, each doing one LU (2/3 m^3), two
  // m-RHS triangular solve pairs (2 m^3 each), ~4 m x m gemms (2 m^3 each)
  // and ~4 m x r gemms; the level sum is geometric with ratio 1/2.
  const double dn = static_cast<double>(num_blocks);
  const double dm = static_cast<double>(block_size);
  const double dr = static_cast<double>(num_rhs);
  return 2.0 * dn * ((2.0 / 3.0 + 2.0 * 2.0 + 4.0 * 2.0) * dm * dm * dm + 10.0 * dm * dm * dr);
}

}  // namespace ardbt::btds
