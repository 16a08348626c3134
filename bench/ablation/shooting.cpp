#include "bench/ablation/shooting.hpp"

#include <cmath>
#include <utility>

#include "src/fault/status.hpp"
#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/lu.hpp"

namespace ardbt::ablation {
namespace {

using la::index_t;
using la::Matrix;

/// Homogeneous affine prefix [S V; 0 c]: the represented (projective) map
/// is u -> (S u + V) / c. Rescaling all three jointly leaves it unchanged.
struct AffinePrefix {
  Matrix s;  // 2M x 2M
  Matrix v;  // 2M x R
  double c = 1.0;

  void rescale() {
    double mx = std::max(la::norm_max(s.view()), la::norm_max(v.view()));
    mx = std::max(mx, std::abs(c));
    if (mx == 0.0 || !std::isfinite(mx)) return;
    const int k = std::ilogb(mx) + 1;
    if (k == 0) return;
    const double f = std::ldexp(1.0, -k);
    s.scale(f);
    v.scale(f);
    c *= f;
  }
};

}  // namespace

la::Matrix shooting_solve(const btds::BlockTridiag& sys, const la::Matrix& b) {
  btds::require_rows(sys, 0, sys.num_blocks(), "ablation::shooting_solve");
  const index_t n = sys.num_blocks();
  const index_t m = sys.block_size();
  const index_t r = b.cols();
  btds::require_rhs(sys.dim(), b, "ablation::shooting_solve");

  AffinePrefix p{.s = Matrix::identity(2 * m), .v = Matrix(2 * m, r), .c = 1.0};
  std::vector<la::LuFactors> c_lus(static_cast<std::size_t>(n - 1));

  for (index_t i = 0; i < n; ++i) {
    // Solve C_i [Wd | Wa | Wb] = [D_i | A_i | b_i] in one pass.
    const bool has_a = i > 0;
    const bool has_c = i + 1 < n;
    Matrix rhs(m, (has_a ? 2 * m : m) + r);
    la::copy(sys.diag(i).view(), rhs.block(0, 0, m, m));
    if (has_a) la::copy(sys.lower(i).view(), rhs.block(0, m, m, m));
    la::copy(btds::block_row(b, i, m), rhs.block(0, has_a ? 2 * m : m, m, r));
    if (has_c) {
      la::LuFactors c_lu = la::lu_factor(sys.upper(i).view());
      if (!c_lu.ok()) {
        throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot,
                                        "ablation::shooting_upper", i, c_lu.info - 1, c_lu.growth);
      }
      la::lu_solve_inplace(c_lu, rhs.view());
      c_lus[static_cast<std::size_t>(i)] = std::move(c_lu);
    }

    // T_i = [ -Wd  -Wa  Wb ;  I 0 0 ; 0 0 1 ].
    Matrix ts(2 * m, 2 * m);
    Matrix tv(2 * m, r);
    for (index_t row = 0; row < m; ++row) {
      for (index_t col = 0; col < m; ++col) ts(row, col) = -rhs(row, col);
      if (has_a) {
        for (index_t col = 0; col < m; ++col) ts(row, m + col) = -rhs(row, m + col);
      }
      for (index_t col = 0; col < r; ++col) tv(row, col) = rhs(row, (has_a ? 2 * m : m) + col);
      ts(m + row, row) = 1.0;
    }

    // Compose: prefix := T_i o prefix.
    AffinePrefix next{.s = Matrix(2 * m, 2 * m), .v = Matrix(2 * m, r), .c = p.c};
    la::gemm(1.0, ts.view(), p.s.view(), 0.0, next.s.view());
    la::gemm(1.0, ts.view(), p.v.view(), 0.0, next.v.view());
    la::matrix_axpy(p.c, tv.view(), next.v.view());
    p = std::move(next);
    p.rescale();
  }

  // Boundary: [x_N; x_{N-1}] proportional to p applied to [x_0; 0; 1];
  // the ghost condition x_N = 0 gives S11 X0 = -V_top.
  la::LuFactors s11 = la::lu_factor(p.s.block(0, 0, m, m));
  if (!s11.ok()) {
    throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot,
                                    "ablation::shooting_boundary", -1, s11.info - 1, s11.growth);
  }
  Matrix x0 = la::to_matrix(p.v.block(0, 0, m, r));
  la::matrix_scal(-1.0, x0.view());
  la::lu_solve_inplace(s11, x0.view());

  // Forward recovery (the unstable shooting recurrence):
  // x_{i+1} = -C_i^{-1}(D_i x_i + A_i x_{i-1} - b_i).
  Matrix x(b.rows(), r);
  la::copy(x0.view(), btds::block_row(x, 0, m));
  for (index_t i = 0; i + 1 < n; ++i) {
    Matrix t(m, r);
    la::gemm(1.0, sys.diag(i).view(), btds::block_row(std::as_const(x), i, m), 0.0, t.view());
    if (i > 0) {
      la::gemm(1.0, sys.lower(i).view(), btds::block_row(std::as_const(x), i - 1, m), 1.0,
               t.view());
    }
    la::matrix_axpy(-1.0, btds::block_row(b, i, m), t.view());
    la::matrix_scal(-1.0, t.view());
    la::lu_solve_inplace(c_lus[static_cast<std::size_t>(i)], t.view());
    la::copy(t.view(), btds::block_row(x, i + 1, m));
  }
  return x;
}

}  // namespace ardbt::ablation
