#pragma once

#include <span>
#include <vector>

#include "src/la/lu.hpp"
#include "src/la/matrix.hpp"
#include "src/la/views.hpp"

/// \file smallblock.hpp
/// Fixed-M register-blocked microkernels for the small-block regime.
///
/// The paper's complexity claim lives entirely in O(M^3) operations on
/// blocks of order M ~ 4..32 — sizes at which the generic cache-tiled
/// GEMM (64x128x256 tiles, gemm.cpp) never engages its blocking and every
/// call pays runtime trip counts, dispatch branches, and per-call
/// temporaries. This layer provides compile-time-dispatched kernels for
/// M in {2, 4, 8, 16, 32}: the i/k loops have constant bounds and the
/// output columns run in explicit SIMD register tiles (kernels.hpp),
/// while the right-hand-side width stays a runtime parameter. Shapes
/// outside the set fall back to the generic path.
///
/// **Determinism contract** (docs/KERNELS.md): every kernel here performs
/// the *exact* per-element floating-point operation sequence of the
/// generic path it replaces — same saxpy (i,k,j) accumulation order in
/// GEMM, same elimination and substitution order (including the
/// skip-on-zero multiplier branches) in LU/TRSM. Results are therefore
/// bit-identical to the seed kernels and across par::Pool sizes; the
/// `set_enabled(false)` kill switch below exists purely so benchmarks can
/// time the generic path, never to change results.
///
/// Batched entry points sweep a sequence of equally-shaped blocks with
/// one M-dispatch hoisted out of the loop — the PCR level updates call
/// once per level instead of once per block.

namespace ardbt::la::smallblock {

/// True when `m` has a compiled fixed-size kernel (M in {2, 4, 8, 16, 32}).
bool dispatchable(index_t m);

/// Runtime kill switch (default on). Only benchmarks/tests toggle it, to
/// A/B the generic path; solutions are bit-identical either way.
bool enabled();
void set_enabled(bool on);

/// C = alpha * A * B + beta * C with A a dispatchable M x M block and
/// B/C M x n (n runtime). Same contract and accumulation order as
/// la::gemm; callers guarantee a.rows() == a.cols() == dispatchable M.
void gemm_fixed(index_t m, double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
                MatrixView c);

/// Fixed-size counterparts of the caller-owned-storage primitives
/// la::lu_factor_inplace / the view overload of la::lu_solve_inplace.
/// Preconditions: m is dispatchable; piv has m entries.
LuInPlaceInfo lu_factor_inplace_fixed(index_t m, MatrixView a, index_t* piv);
void lu_solve_inplace_fixed(index_t m, ConstMatrixView lu, const index_t* piv, MatrixView b);

/// One item of a batched multiply: c = alpha * a * b + beta * c.
struct GemmItem {
  ConstMatrixView a;  ///< M x M
  ConstMatrixView b;  ///< M x n
  MatrixView c;       ///< M x n
};

/// Sweep a sequence of equally-shaped products in index order with a
/// single M-dispatch. Items may be data-dependent (item i reading what
/// item i-1 wrote) — execution order is the index order, so results match
/// per-item la::gemm calls bit for bit. `m` is the (common) block order;
/// non-dispatchable m or a disabled layer falls back to la::gemm per item.
void batched_gemm(index_t m, double alpha, std::span<const GemmItem> items, double beta);

/// Factor every M x M block of `blocks` (in index order, one dispatch),
/// appending to `out`. Identical per-block results to la::lu_factor on
/// each view; callers check ok() / diagnostics exactly as before.
void batched_lu_factor(index_t m, std::span<const ConstMatrixView> blocks,
                       std::vector<LuFactors>& out);

/// One item of a batched triangular solve pair: b := A_i^{-1} b through
/// the item's factorization.
struct LuSolveItem {
  const LuFactors* f;  ///< factored M x M block
  MatrixView b;        ///< M x n right-hand-side panel, solved in place
};

/// Apply a sequence of factored blocks to their panels in index order
/// with a single M-dispatch. Identical per-item results to
/// la::lu_solve_inplace.
void batched_lu_solve(index_t m, std::span<const LuSolveItem> items);

}  // namespace ardbt::la::smallblock
