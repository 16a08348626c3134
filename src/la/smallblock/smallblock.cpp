#include "src/la/smallblock/smallblock.hpp"

#include <atomic>

#include "src/fault/status.hpp"
#include "src/la/gemm.hpp"
#include "src/la/smallblock/kernels.hpp"

namespace ardbt::la::smallblock {

// The single home of the fixed-M instantiations (kernels.hpp declares
// them extern). This file is compiled with the kernel-tuning flags from
// src/la/CMakeLists.txt; keeping one copy of the code means every caller
// — gemm.cpp dispatch, thomas.cpp panels, PCR batches — produces the
// same bits.
#define ARDBT_SMALLBLOCK_INSTANTIATE(M)                                                \
  template void gemm_kernel<M>(double, ConstMatrixView, ConstMatrixView, MatrixView);  \
  template void trsm_lower_unit_kernel<M>(ConstMatrixView, MatrixView);                \
  template void trsm_upper_kernel<M>(ConstMatrixView, MatrixView);                     \
  template void lu_solve_view_kernel<M>(ConstMatrixView, const index_t*, MatrixView);  \
  template void lu_solve_kernel<M>(const LuFactors&, MatrixView);                      \
  template LuInPlaceInfo lu_factor_view_kernel<M>(MatrixView, index_t*);               \
  template LuInPlaceInfo lu_factor_solve_view_kernel<M>(MatrixView, index_t*, MatrixView); \
  template LuFactors lu_factor_kernel<M>(Matrix)
ARDBT_SMALLBLOCK_INSTANTIATE(2);
ARDBT_SMALLBLOCK_INSTANTIATE(4);
ARDBT_SMALLBLOCK_INSTANTIATE(8);
ARDBT_SMALLBLOCK_INSTANTIATE(16);
ARDBT_SMALLBLOCK_INSTANTIATE(32);
#undef ARDBT_SMALLBLOCK_INSTANTIATE

namespace {

std::atomic<bool> g_enabled{true};

/// Runtime-extent twin of gemm_kernel for the non-dispatchable fallback
/// inside entry points that have already applied scale_c.
void gemm_kernel_runtime(index_t m, double alpha, ConstMatrixView a, ConstMatrixView b,
                         MatrixView c) {
  const index_t n = c.cols();
  for (index_t i = 0; i < m; ++i) {
    double* ci = c.row_ptr(i);
    const double* ai = a.row_ptr(i);
    for (index_t k = 0; k < m; ++k) {
      const double aik = alpha * ai[k];
      const double* bk = b.row_ptr(k);
      for (index_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

/// Same gate as lu.cpp's require_ok: a singular factorization fails loudly.
void require_ok(const LuFactors& f, const char* where) {
  if (!f.ok()) {
    throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, where, -1,
                                    static_cast<std::int64_t>(f.info - 1), f.growth);
  }
}

}  // namespace

bool dispatchable(index_t m) { return m == 2 || m == 4 || m == 8 || m == 16 || m == 32; }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void gemm_fixed(index_t m, double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
                MatrixView c) {
  scale_c(beta, c);
  if (alpha == 0.0) return;
  const bool hit = dispatch(m, [&](auto tag) {
    constexpr index_t kM = decltype(tag)::value;
    gemm_kernel<kM>(alpha, a, b, c);
  });
  if (!hit) gemm_kernel_runtime(m, alpha, a, b, c);
}

LuInPlaceInfo lu_factor_inplace_fixed(index_t m, MatrixView a, index_t* piv) {
  LuInPlaceInfo d;
  dispatch(m, [&](auto tag) {
    constexpr index_t kM = decltype(tag)::value;
    d = lu_factor_view_kernel<kM>(a, piv);
  });
  return d;
}

void lu_solve_inplace_fixed(index_t m, ConstMatrixView lu, const index_t* piv, MatrixView b) {
  dispatch(m, [&](auto tag) {
    constexpr index_t kM = decltype(tag)::value;
    lu_solve_view_kernel<kM>(lu, piv, b);
  });
}

void batched_gemm(index_t m, double alpha, std::span<const GemmItem> items, double beta) {
  if (enabled()) {
    const bool hit = dispatch(m, [&](auto tag) {
      constexpr index_t kM = decltype(tag)::value;
      for (const GemmItem& it : items) {
        scale_c(beta, it.c);
        if (alpha == 0.0) continue;
        gemm_kernel<kM>(alpha, it.a, it.b, it.c);
      }
    });
    if (hit) return;
  }
  for (const GemmItem& it : items) gemm(alpha, it.a, it.b, beta, it.c);
}

void batched_lu_factor(index_t m, std::span<const ConstMatrixView> blocks,
                       std::vector<LuFactors>& out) {
  out.reserve(out.size() + blocks.size());
  if (enabled()) {
    const bool hit = dispatch(m, [&](auto tag) {
      constexpr index_t kM = decltype(tag)::value;
      for (ConstMatrixView blk : blocks) out.push_back(lu_factor_kernel<kM>(to_matrix(blk)));
    });
    if (hit) return;
  }
  for (ConstMatrixView blk : blocks) out.push_back(lu_factor(blk));
}

void batched_lu_solve(index_t m, std::span<const LuSolveItem> items) {
  if (enabled()) {
    const bool hit = dispatch(m, [&](auto tag) {
      constexpr index_t kM = decltype(tag)::value;
      for (const LuSolveItem& it : items) {
        require_ok(*it.f, "la::lu_solve");
        lu_solve_kernel<kM>(*it.f, it.b);
      }
    });
    if (hit) return;
  }
  for (const LuSolveItem& it : items) lu_solve_inplace(*it.f, it.b);
}

}  // namespace ardbt::la::smallblock
