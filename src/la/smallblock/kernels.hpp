#pragma once

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "src/la/gemm.hpp"
#include "src/la/lu.hpp"
#include "src/la/matrix.hpp"
#include "src/la/smallblock/smallblock.hpp"
#include "src/la/views.hpp"

/// \file kernels.hpp
/// The fixed-M kernel templates behind smallblock.hpp's entry points,
/// exposed so sweeping call sites can hoist the M-dispatch out of their
/// per-block loops: block sweeps take a kernel set from with_kernels(m,
/// ...) (end of this file) once per sweep, then run with zero per-block
/// branching.
///
/// Every template here is a transcription of the corresponding generic
/// loop in gemm.cpp / lu.cpp with the M-extent promoted to a template
/// parameter. The per-element floating-point operation order — including
/// the skip-on-zero multiplier branches — is preserved exactly; any
/// reordering breaks the library-wide bit-identity contract
/// (docs/KERNELS.md).

namespace ardbt::la::smallblock {

/// Invoke `f` with std::integral_constant<index_t, M> when `m` is a
/// dispatchable size; returns false (without calling f) otherwise. Block
/// sweeps choose their kernels through with_kernels() at the end of this
/// file instead.
template <typename F>
bool dispatch(index_t m, F&& f) {
  switch (m) {
    case 2:
      f(std::integral_constant<index_t, 2>{});
      return true;
    case 4:
      f(std::integral_constant<index_t, 4>{});
      return true;
    case 8:
      f(std::integral_constant<index_t, 8>{});
      return true;
    case 16:
      f(std::integral_constant<index_t, 16>{});
      return true;
    case 32:
      f(std::integral_constant<index_t, 32>{});
      return true;
    default:
      return false;
  }
}

/// Same beta handling as gemm.cpp's scale_c.
inline void scale_c(double beta, MatrixView c) {
  if (beta == 1.0) return;
  if (beta == 0.0) {
    for (index_t i = 0; i < c.rows(); ++i) std::fill(c.row_ptr(i), c.row_ptr(i) + c.cols(), 0.0);
    return;
  }
  for (index_t i = 0; i < c.rows(); ++i) {
    double* ci = c.row_ptr(i);
    for (index_t j = 0; j < c.cols(); ++j) ci[j] *= beta;
  }
}

/// Register tiles. The generic saxpy loops stream each output row from
/// memory M times; these kernels keep an R-row x W-column accumulator
/// tile in SIMD registers across the whole (unrolled, compile-time-M) k
/// loop and write each element exactly once. A tile's W columns are NV
/// values of a lane type V: four doubles (V4), two (V2) or one (double).
/// Widths cascade 16 -> 8 -> 4 -> 2 -> 1 so narrow panels (factor-path
/// couplings are only M columns wide) still run register-blocked.
///
/// Lane arithmetic is the scalar IEEE operation applied element by
/// element, and the file is compiled without FMA contraction, so each
/// element still receives the same terms in the same k-ascending order
/// as the generic loop: results stay bit-identical. Only which elements
/// share a register changes (docs/KERNELS.md).
namespace detail {

using V4 = double __attribute__((vector_size(4 * sizeof(double))));
using V2 = double __attribute__((vector_size(2 * sizeof(double))));

template <typename V>
inline constexpr index_t kLanes = static_cast<index_t>(sizeof(V) / sizeof(double));

/// Lane type V with a double's alignment and may_alias: view rows carry
/// no alignment guarantee, and the lane value overlays plain doubles.
/// A double lane needs neither.
template <typename V>
struct Unaligned {
  using type = V;
};
template <>
struct Unaligned<V4> {
  using type = double __attribute__((vector_size(4 * sizeof(double)), aligned(8), may_alias));
};
template <>
struct Unaligned<V2> {
  using type = double __attribute__((vector_size(2 * sizeof(double)), aligned(8), may_alias));
};

/// The lane value of type V stored at p. A reference, not a value, so no
/// vector crosses a function boundary (no -Wpsabi on non-AVX builds).
template <typename V>
inline auto& at(double* p) {
  return *reinterpret_cast<typename Unaligned<V>::type*>(p);
}

template <typename V>
inline const auto& at(const double* p) {
  return *reinterpret_cast<const typename Unaligned<V>::type*>(p);
}

/// Rows [i, i + R) x columns [j, j + NV * lanes) of C += alpha * A * B.
/// Each B row segment is loaded once per k and shared by the R rows.
template <index_t M, index_t R, index_t NV, typename V>
inline void gemm_tile(double alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c, index_t i,
                      index_t j) {
  constexpr index_t L = kLanes<V>;
  V acc[R][NV];
  for (index_t r = 0; r < R; ++r) {
    for (index_t v = 0; v < NV; ++v) acc[r][v] = at<V>(c.row_ptr(i + r) + j + v * L);
  }
  for (index_t k = 0; k < M; ++k) {
    const double* bk = b.row_ptr(k) + j;
    V bv[NV];
    for (index_t v = 0; v < NV; ++v) bv[v] = at<V>(bk + v * L);
    for (index_t r = 0; r < R; ++r) {
      const double aik = alpha * a(i + r, k);
      for (index_t v = 0; v < NV; ++v) acc[r][v] += aik * bv[v];
    }
  }
  for (index_t r = 0; r < R; ++r) {
    for (index_t v = 0; v < NV; ++v) at<V>(c.row_ptr(i + r) + j + v * L) = acc[r][v];
  }
}

/// Forward-substitution tile over rows [i, i + R): rows k < i are final
/// and shared by the R rows as in gemm_tile; the R x R triangle inside
/// the tile then runs from registers. Per element: k ascending, with the
/// same skip-on-zero branches as lu.cpp's generic loop.
template <index_t R, index_t NV, typename V>
inline void trsm_lower_tile(ConstMatrixView lu, MatrixView b, index_t i, index_t j) {
  constexpr index_t L = kLanes<V>;
  V acc[R][NV];
  for (index_t r = 0; r < R; ++r) {
    for (index_t v = 0; v < NV; ++v) acc[r][v] = at<V>(b.row_ptr(i + r) + j + v * L);
  }
  for (index_t k = 0; k < i; ++k) {
    const double* bk = b.row_ptr(k) + j;
    V bv[NV];
    for (index_t v = 0; v < NV; ++v) bv[v] = at<V>(bk + v * L);
    for (index_t r = 0; r < R; ++r) {
      const double lik = lu(i + r, k);
      if (lik == 0.0) continue;
      for (index_t v = 0; v < NV; ++v) acc[r][v] -= lik * bv[v];
    }
  }
  for (index_t r = 1; r < R; ++r) {
    for (index_t q = 0; q < r; ++q) {
      const double lik = lu(i + r, i + q);
      if (lik == 0.0) continue;
      for (index_t v = 0; v < NV; ++v) acc[r][v] -= lik * acc[q][v];
    }
  }
  for (index_t r = 0; r < R; ++r) {
    for (index_t v = 0; v < NV; ++v) at<V>(b.row_ptr(i + r) + j + v * L) = acc[r][v];
  }
}

/// Back-substitution tile of row i (rows k > i are final), with the
/// trailing inv_uii scale applied at store time — the same final
/// multiply the generic loop performs in place. Row i's first term needs
/// row i + 1 final, so rows cannot share a tile here.
template <index_t M, index_t NV, typename V>
inline void trsm_upper_tile(ConstMatrixView lu, double inv_uii, MatrixView b, index_t i,
                            index_t j) {
  constexpr index_t L = kLanes<V>;
  double* bi = b.row_ptr(i) + j;
  V acc[NV];
  for (index_t v = 0; v < NV; ++v) acc[v] = at<V>(bi + v * L);
  for (index_t k = i + 1; k < M; ++k) {
    const double uik = lu(i, k);
    if (uik == 0.0) continue;
    const double* bk = b.row_ptr(k) + j;
    for (index_t v = 0; v < NV; ++v) acc[v] -= uik * at<V>(bk + v * L);
  }
  for (index_t v = 0; v < NV; ++v) at<V>(bi + v * L) = acc[v] * inv_uii;
}

/// Run `tile` across the n columns, widest tile first: the 16-wide
/// tile repeats, then at most one each of 8, 4, 2 and 1 columns.
/// `tile.template operator()<NV, V>(j)` covers columns [j, j + NV * lanes).
template <typename Tile>
inline void column_cascade(index_t n, Tile&& tile) {
  index_t j = 0;
  for (; j + 16 <= n; j += 16) tile.template operator()<4, V4>(j);
  if (j + 8 <= n) {
    tile.template operator()<2, V4>(j);
    j += 8;
  }
  if (j + 4 <= n) {
    tile.template operator()<1, V4>(j);
    j += 4;
  }
  if (j + 2 <= n) {
    tile.template operator()<1, V2>(j);
    j += 2;
  }
  if (j < n) tile.template operator()<1, double>(j);
}

/// Rows per register tile in the row-blocked kernels.
template <index_t M>
inline constexpr index_t kTileRows = M < 4 ? M : 4;

}  // namespace detail

/// C += alpha * A * B with A M x M; same per-element operation order as
/// gemm.cpp's saxpy (i,k,j) loops. Callers apply scale_c / the alpha == 0
/// early-out first.
template <index_t M>
void gemm_kernel(double alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  constexpr index_t R = detail::kTileRows<M>;
  for (index_t i = 0; i < M; i += R) {
    detail::column_cascade(c.cols(), [&]<index_t NV, typename V>(index_t j) {
      detail::gemm_tile<M, R, NV, V>(alpha, a, b, c, i, j);
    });
  }
}

/// B := L^{-1} B with the unit-lower triangle of a packed M x M LU.
template <index_t M>
void trsm_lower_unit_kernel(ConstMatrixView lu, MatrixView b) {
  constexpr index_t R = detail::kTileRows<M>;
  for (index_t i = 0; i < M; i += R) {
    detail::column_cascade(b.cols(), [&]<index_t NV, typename V>(index_t j) {
      detail::trsm_lower_tile<R, NV, V>(lu, b, i, j);
    });
  }
}

/// B := U^{-1} B with the upper triangle of a packed M x M LU.
template <index_t M>
void trsm_upper_kernel(ConstMatrixView lu, MatrixView b) {
  for (index_t i = M - 1; i >= 0; --i) {
    const double inv_uii = 1.0 / lu(i, i);
    detail::column_cascade(b.cols(), [&]<index_t NV, typename V>(index_t j) {
      detail::trsm_upper_tile<M, NV, V>(lu, inv_uii, b, i, j);
    });
  }
}

/// b := P b with a row permutation in caller-owned storage (no FP
/// arithmetic, so no ordering concerns).
inline void apply_permutation_kernel(const index_t* piv, index_t n, MatrixView b) {
  for (index_t k = 0; k < n; ++k) {
    const index_t p = piv[k];
    if (p != k) {
      for (index_t j = 0; j < b.cols(); ++j) std::swap(b(k, j), b(p, j));
    }
  }
}

/// Full getrs with a dispatched M over caller-owned factors: permutation,
/// forward, backward. The caller has already verified the factorization
/// is ok() (lu.cpp's require_ok contract).
template <index_t M>
void lu_solve_view_kernel(ConstMatrixView lu, const index_t* piv, MatrixView b) {
  apply_permutation_kernel(piv, M, b);
  trsm_lower_unit_kernel<M>(lu, b);
  trsm_upper_kernel<M>(lu, b);
}

/// LuFactors-packed convenience over lu_solve_view_kernel.
template <index_t M>
void lu_solve_kernel(const LuFactors& f, MatrixView b) {
  lu_solve_view_kernel<M>(f.lu.view(), f.piv.data(), b);
}

namespace detail {

/// Largest |m(i, j)| over the M x M block (kUpper: over j >= i), folded
/// under std::max's rule: a NaN never replaces the running value. The
/// maximum of a set of non-negative doubles does not depend on the fold
/// order, so the V4 lanes may hold partial maxima and the result still
/// equals the sequential scalar fold bit for bit.
template <index_t M, bool kUpper>
inline double max_abs(ConstMatrixView m) {
  V4 vmax{};
  double smax = 0.0;
  for (index_t i = 0; i < M; ++i) {
    const index_t j0 = kUpper ? i : 0;
    const double* p = m.row_ptr(i) + j0;
    index_t j = 0;
    for (; j + 4 <= M - j0; j += 4) {
      const V4 x = at<V4>(p + j);
      const V4 ax = x < 0.0 ? -x : x;
      vmax = vmax < ax ? ax : vmax;
    }
    for (; j < M - j0; ++j) smax = std::max(smax, std::abs(p[j]));
  }
  for (index_t l = 0; l < 4; ++l) smax = std::max(smax, vmax[l]);
  return smax;
}

/// mi[j] -= lik * mk[j] for j in [J, M): the rank-1 row update of an
/// elimination step, J = K + 1 on the factored block and 0 on a right-hand
/// block riding along. J is a compile-time constant, so the extent is
/// too: a 1- and a 2-wide head, then V4s.
template <index_t M, index_t J>
inline void lu_row_update(double lik, double* mi, const double* mk) {
  constexpr index_t kLen = M - J;
  index_t j = J;
  if constexpr (kLen % 2 != 0) {
    mi[j] -= lik * mk[j];
    j += 1;
  }
  if constexpr (kLen % 4 >= 2) {
    at<V2>(mi + j) -= lik * at<V2>(mk + j);
    j += 2;
  }
  for (; j < M; j += 4) at<V4>(mi + j) -= lik * at<V4>(mk + j);
}

/// Elimination step K of lu_eliminate: pivot search, row swap,
/// multipliers and rank-1 update, in lu.cpp's order. Under kRhs the M x M
/// block b takes the same row swap and, row by row right after the
/// factor's, the same rank-1 update with the same multiplier.
template <index_t M, index_t K, bool kRhs>
inline void lu_step(MatrixView m, index_t* piv, LuInPlaceInfo& d, MatrixView b) {
  index_t p = K;
  double best = std::abs(m(K, K));
  for (index_t i = K + 1; i < M; ++i) {
    const double v = std::abs(m(i, K));
    if (v > best) {
      best = v;
      p = i;
    }
  }
  piv[K] = p;
  if (p != K) {
    for (index_t j = 0; j < M; ++j) std::swap(m(K, j), m(p, j));
    if constexpr (kRhs) {
      for (index_t j = 0; j < M; ++j) std::swap(b(K, j), b(p, j));
    }
  }
  const double pivot = m(K, K);
  d.min_pivot_abs = std::min(d.min_pivot_abs, std::abs(pivot));
  d.max_pivot_abs = std::max(d.max_pivot_abs, std::abs(pivot));
  if (pivot == 0.0) {
    if (d.info == 0) d.info = K + 1;
    return;  // complete the factorization LAPACK-style, like lu_factor
  }
  const double inv_pivot = 1.0 / pivot;
  const double* mk = m.row_ptr(K);
  for (index_t i = K + 1; i < M; ++i) {
    const double lik = m(i, K) * inv_pivot;
    m(i, K) = lik;
    if (lik == 0.0) continue;
    lu_row_update<M, K + 1>(lik, m.row_ptr(i), mk);
    if constexpr (kRhs) lu_row_update<M, 0>(lik, b.row_ptr(i), b.row_ptr(K));
  }
}

/// getrf of m in place with the growth factor; under kRhs, b rides along
/// (see lu_step). The elimination steps are unrolled so every row update
/// has a constant extent.
template <index_t M, bool kRhs>
inline LuInPlaceInfo lu_eliminate(MatrixView m, index_t* piv, MatrixView b) {
  LuInPlaceInfo d;

  const double a_max = max_abs<M, false>(m);

  [&]<index_t... K>(std::integer_sequence<index_t, K...>) {
    (lu_step<M, K, kRhs>(m, piv, d, b), ...);
  }(std::make_integer_sequence<index_t, M>{});

  const double u_max = max_abs<M, true>(m);
  d.growth = a_max > 0.0 ? u_max / a_max : 1.0;
  return d;
}

}  // namespace detail

/// getrf with partial pivoting, M x M extents compile-time, factoring the
/// view in place with caller-owned pivots; identical arithmetic, pivot
/// diagnostics, and LAPACK-style zero-pivot completion to la::lu_factor.
template <index_t M>
LuInPlaceInfo lu_factor_view_kernel(MatrixView m, index_t* piv) {
  return detail::lu_eliminate<M, false>(m, piv, MatrixView());
}

/// lu_factor_view_kernel on `m` and B := M^{-1} B on the M x M block `b`
/// in one elimination of [M | B]: each row swap and multiplier reaches b
/// as the factor makes it, which is the permutation and forward
/// substitution of lu_solve_view_kernel element for element (every row
/// of b receives the same terms in the same k-ascending order, with the
/// same skip on a zero multiplier), and only the back substitution is
/// left. `m`, `piv` and the diagnostics come out with
/// lu_factor_view_kernel's bits and `b` with those of lu_solve_view_kernel
/// after it. On a zero pivot (!ok()) the back substitution is skipped and
/// b is left partly eliminated.
template <index_t M>
LuInPlaceInfo lu_factor_solve_view_kernel(MatrixView m, index_t* piv, MatrixView b) {
  const LuInPlaceInfo d = detail::lu_eliminate<M, true>(m, piv, b);
  if (d.ok()) trsm_upper_kernel<M>(m, b);
  return d;
}

/// LuFactors-packed convenience over lu_factor_view_kernel.
template <index_t M>
LuFactors lu_factor_kernel(Matrix a) {
  LuFactors f;
  f.piv.resize(static_cast<std::size_t>(M));
  const LuInPlaceInfo d = lu_factor_view_kernel<M>(a.view(), f.piv.data());
  f.info = d.info;
  f.min_pivot_abs = d.min_pivot_abs;
  f.max_pivot_abs = d.max_pivot_abs;
  f.growth = d.growth;
  f.lu = std::move(a);
  return f;
}

// All call sites share the instantiations defined in smallblock.cpp —
// that one translation unit is compiled with the kernel-tuning flags
// (see src/la/CMakeLists.txt), so every caller gets the same code and
// the same bits regardless of its own TU's options.
#define ARDBT_SMALLBLOCK_EXTERN(M)                                                     \
  extern template void gemm_kernel<M>(double, ConstMatrixView, ConstMatrixView,        \
                                      MatrixView);                                     \
  extern template void trsm_lower_unit_kernel<M>(ConstMatrixView, MatrixView);         \
  extern template void trsm_upper_kernel<M>(ConstMatrixView, MatrixView);              \
  extern template void lu_solve_view_kernel<M>(ConstMatrixView, const index_t*,        \
                                               MatrixView);                            \
  extern template void lu_solve_kernel<M>(const LuFactors&, MatrixView);               \
  extern template LuInPlaceInfo lu_factor_view_kernel<M>(MatrixView, index_t*);        \
  extern template LuInPlaceInfo lu_factor_solve_view_kernel<M>(MatrixView, index_t*,    \
                                                               MatrixView);             \
  extern template LuFactors lu_factor_kernel<M>(Matrix)
ARDBT_SMALLBLOCK_EXTERN(2);
ARDBT_SMALLBLOCK_EXTERN(4);
ARDBT_SMALLBLOCK_EXTERN(8);
ARDBT_SMALLBLOCK_EXTERN(16);
ARDBT_SMALLBLOCK_EXTERN(32);
#undef ARDBT_SMALLBLOCK_EXTERN

/// A kernel set: the operations a block sweep (block-Thomas factor and
/// solve, its spike sweeps, ARD's spike update) runs on M x M blocks.
/// GenericKernels makes the la:: calls on views; FixedKernels<M> runs the
/// microkernels above. Both produce the same bits, so the choice only
/// changes speed.
struct GenericKernels {
  /// The block order the sweep runs with (a constant in FixedKernels).
  static index_t order(index_t m) { return m; }
  /// c -= a b.
  static void mul_sub(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
    gemm(-1.0, a, b, 1.0, c);
  }
  /// getrf of `a` in place, the row swaps into caller-owned `piv`.
  static LuInPlaceInfo lu_factor(MatrixView a, index_t* piv) {
    return lu_factor_inplace(a, {piv, static_cast<std::size_t>(a.rows())});
  }
  /// b := A^{-1} b through caller-owned LU factors.
  static void lu_solve(ConstMatrixView lu, const index_t* piv, MatrixView b) {
    lu_solve_inplace(lu, {piv, static_cast<std::size_t>(lu.rows())}, b);
  }
  /// lu_factor of `a`, then (when ok()) lu_solve on the M x M block `b`:
  /// the two steps FixedKernels fuses into one elimination, with the
  /// same bits.
  static LuInPlaceInfo lu_factor_solve(MatrixView a, index_t* piv, MatrixView b) {
    const LuInPlaceInfo d = lu_factor(a, piv);
    if (d.ok()) lu_solve(a, piv, b);
    return d;
  }
};

template <index_t M>
struct FixedKernels {
  static constexpr index_t order(index_t) { return M; }
  static void mul_sub(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
    gemm_kernel<M>(-1.0, a, b, c);
  }
  static LuInPlaceInfo lu_factor(MatrixView a, index_t* piv) {
    return lu_factor_view_kernel<M>(a, piv);
  }
  static void lu_solve(ConstMatrixView lu, const index_t* piv, MatrixView b) {
    lu_solve_view_kernel<M>(lu, piv, b);
  }
  static LuInPlaceInfo lu_factor_solve(MatrixView a, index_t* piv, MatrixView b) {
    return lu_factor_solve_view_kernel<M>(a, piv, b);
  }
};

/// Call `f` with the kernel set for block order `m`: FixedKernels<M> when
/// the layer is enabled and `m` is dispatchable, GenericKernels
/// otherwise. The one place a block sweep chooses its kernels.
template <typename F>
void with_kernels(index_t m, F&& f) {
  const bool fixed = enabled() && dispatch(m, [&](auto tag) {
                       f(FixedKernels<decltype(tag)::value>{});
                     });
  if (!fixed) f(GenericKernels{});
}

}  // namespace ardbt::la::smallblock
