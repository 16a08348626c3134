#include "src/core/twoport.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "src/btds/serde.hpp"
#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"

namespace ardbt::core {
namespace {

/// Pack a list of equally sized matrices by stacking their rows.
std::vector<std::byte> pack(std::initializer_list<const Matrix*> mats) {
  std::size_t total = 0;
  for (const Matrix* m : mats) total += static_cast<std::size_t>(m->size()) * sizeof(double);
  std::vector<std::byte> bytes;
  bytes.reserve(total);
  for (const Matrix* m : mats) btds::append_matrix(bytes, m->view());
  return bytes;
}

}  // namespace

TwoPort merge_twoport(const TwoPort& left, const TwoPort& right, TwoPortCache& cache,
                      mpsim::Comm& comm, la::Workspace* ws) {
  const index_t m = left.P.rows();
  assert(right.P.rows() == m);
  const Matrix& a = right.a_first;  // coupling of the interface rows
  const Matrix& c = left.c_last;
  double flops = 0.0;

  // X4 = P_R a, X2 = R_R a.
  cache.x4 = la::ws_acquire(ws, m, m);
  la::gemm(1.0, right.P.view(), a.view(), 0.0, cache.x4.view());
  cache.x2 = la::ws_acquire(ws, m, m);
  la::gemm(1.0, right.R.view(), a.view(), 0.0, cache.x2.view());
  // Interface system K = I - X4 (S_L c).
  Matrix slc = la::ws_acquire(ws, m, m);
  la::gemm(1.0, left.S.view(), c.view(), 0.0, slc.view());
  Matrix k = Matrix::identity(m);
  la::gemm(-1.0, cache.x4.view(), slc.view(), 1.0, k.view());
  flops += 4.0 * la::gemm_flops(m, m, m);
  la::LuFactors k_lu = la::lu_factor(std::move(k));
  flops += la::lu_factor_flops(m);
  if (!k_lu.ok()) {
    throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, "core::twoport_merge", -1,
                                    static_cast<std::int64_t>(k_lu.info - 1), k_lu.growth);
  }

  // X1 = (Q_L c) K^{-1}, X3 = (S_L c) K^{-1} (right divisions).
  Matrix qlc = la::ws_acquire(ws, m, m);
  la::gemm(1.0, left.Q.view(), c.view(), 0.0, qlc.view());
  cache.x1 = la::right_divide(qlc.view(), k_lu, ws);
  cache.x3 = la::right_divide(slc.view(), k_lu, ws);
  la::ws_release(ws, std::move(qlc));
  la::ws_release(ws, std::move(slc));
  flops += la::gemm_flops(m, m, m) + 2.0 * la::lu_solve_flops(m, m);

  TwoPort out;
  out.a_first = left.a_first;
  out.c_last = right.c_last;

  // P' = P_L + X1 X4 R_L.
  Matrix x1x4 = la::ws_acquire(ws, m, m);
  la::gemm(1.0, cache.x1.view(), cache.x4.view(), 0.0, x1x4.view());
  out.P = left.P;
  la::gemm(1.0, x1x4.view(), left.R.view(), 1.0, out.P.view());
  la::ws_release(ws, std::move(x1x4));
  // Q' = -X1 Q_R.
  out.Q = Matrix(m, m);
  la::gemm(-1.0, cache.x1.view(), right.Q.view(), 0.0, out.Q.view());
  // R' = -X2 (I + X3 X4) R_L.
  Matrix inner = Matrix::identity(m);
  la::gemm(1.0, cache.x3.view(), cache.x4.view(), 1.0, inner.view());
  Matrix inner_rl = la::ws_acquire(ws, m, m);
  la::gemm(1.0, inner.view(), left.R.view(), 0.0, inner_rl.view());
  out.R = Matrix(m, m);
  la::gemm(-1.0, cache.x2.view(), inner_rl.view(), 0.0, out.R.view());
  la::ws_release(ws, std::move(inner_rl));
  // S' = S_R + X2 X3 Q_R.
  Matrix x2x3 = la::ws_acquire(ws, m, m);
  la::gemm(1.0, cache.x2.view(), cache.x3.view(), 0.0, x2x3.view());
  out.S = right.S;
  la::gemm(1.0, x2x3.view(), right.Q.view(), 1.0, out.S.view());
  la::ws_release(ws, std::move(x2x3));
  flops += 8.0 * la::gemm_flops(m, m, m);

  comm.charge_flops(flops);
  return out;
}

TwoPortVec merge_twoport_vec(const TwoPortCache& cache, const TwoPortVec& left,
                             const TwoPortVec& right, mpsim::Comm& comm, la::Workspace* ws) {
  const index_t m = cache.x1.rows();
  const index_t r = left.p.cols();
  assert(right.p.cols() == r);

  // t = p_R - X4 q_L.
  Matrix t = la::ws_acquire(ws, m, r);
  la::copy(right.p.view(), t.view());
  la::gemm(-1.0, cache.x4.view(), left.q.view(), 1.0, t.view());

  TwoPortVec out;
  // p' = p_L - X1 t.
  out.p = la::ws_acquire(ws, m, r);
  la::copy(left.p.view(), out.p.view());
  la::gemm(-1.0, cache.x1.view(), t.view(), 1.0, out.p.view());
  // q' = q_R - X2 (q_L - X3 t).
  Matrix inner = la::ws_acquire(ws, m, r);
  la::copy(left.q.view(), inner.view());
  la::gemm(-1.0, cache.x3.view(), t.view(), 1.0, inner.view());
  out.q = la::ws_acquire(ws, m, r);
  la::copy(right.q.view(), out.q.view());
  la::gemm(-1.0, cache.x2.view(), inner.view(), 1.0, out.q.view());
  la::ws_release(ws, std::move(t));
  la::ws_release(ws, std::move(inner));

  comm.charge_flops(4.0 * la::gemm_flops(m, r, m));
  return out;
}

std::vector<std::byte> TwoPortOp::ser_mat(const Context&, const Mat& m) {
  return pack({&m.P, &m.Q, &m.R, &m.S, &m.a_first, &m.c_last});
}

TwoPortOp::Mat TwoPortOp::des_mat(const Context& ctx, std::span<const std::byte> bytes) {
  TwoPort out;
  out.P = btds::take_matrix(bytes, ctx.m, ctx.m);
  out.Q = btds::take_matrix(bytes, ctx.m, ctx.m);
  out.R = btds::take_matrix(bytes, ctx.m, ctx.m);
  out.S = btds::take_matrix(bytes, ctx.m, ctx.m);
  out.a_first = btds::take_matrix(bytes, ctx.m, ctx.m);
  out.c_last = btds::take_matrix(bytes, ctx.m, ctx.m);
  assert(bytes.empty());
  return out;
}

std::vector<std::byte> TwoPortOp::ser_vec(const Context&, const Vec& v) {
  return pack({&v.p, &v.q});
}

TwoPortOp::Vec TwoPortOp::des_vec(const Context& ctx, std::span<const std::byte> bytes) {
  const auto r = static_cast<index_t>(bytes.size() / sizeof(double)) / (2 * ctx.m);
  TwoPortVec out;
  out.p = btds::take_matrix(bytes, ctx.m, r, ctx.ws);
  out.q = btds::take_matrix(bytes, ctx.m, r, ctx.ws);
  assert(bytes.empty());
  return out;
}

}  // namespace ardbt::core
