#include "bench/ablation/transfer_rd.hpp"

#include <cassert>
#include <utility>

#include "bench/ablation/transfer.hpp"
#include "src/btds/serde.hpp"
#include "src/fault/status.hpp"
#include "src/la/gemm.hpp"

namespace ardbt::ablation {
namespace {

using la::ConstMatrixView;
using la::gemm_flops;
using la::lu_solve_flops;
using la::Matrix;
using la::MatrixView;

la::MatrixView local_block(Matrix& buf, la::index_t k, la::index_t m) {
  return buf.block(k * m, 0, m, buf.cols());
}
la::ConstMatrixView local_block(const Matrix& buf, la::index_t k, la::index_t m) {
  return buf.block(k * m, 0, m, buf.cols());
}

}  // namespace

TransferRdFactorization TransferRdFactorization::factor(mpsim::Comm& comm,
                                                        const btds::BlockTridiag& sys,
                                                        const btds::RowPartition& part,
                                                        const TransferRdOptions& opts) {
  TransferRdFactorization f;
  f.rank_ = comm.rank();
  f.n_ = sys.num_blocks();
  f.m_ = sys.block_size();
  f.lo_ = part.begin(comm.rank());
  f.hi_ = part.end(comm.rank());
  assert(part.nranks() == comm.size());
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "transfer_rd.factor");
  if (f.hi_ - f.lo_ < 1) {
    throw fault::InvalidArgumentError("ablation::TransferRdFactorization::factor",
                                      "every rank needs at least one block row (N >= P)");
  }
  btds::require_rows(sys, f.lo_, f.hi_ - f.lo_, "ablation::TransferRdFactorization::factor");

  const la::index_t m = f.m_;
  const la::index_t two_m = 2 * m;
  const la::index_t nloc = f.hi_ - f.lo_;
  const auto uz = [](la::index_t k) { return static_cast<std::size_t>(k); };

  // --- 1. Element transfer matrices and the local segment prefix product.
  std::vector<Matrix> thetas(uz(nloc));
  Matrix seg = Matrix::identity(two_m);
  for (la::index_t k = 0; k < nloc; ++k) {
    const la::index_t i = f.lo_ + k;
    const Matrix* a = (i > 0) ? &sys.lower(i) : nullptr;
    la::LuFactors c_lu;
    const bool has_c = i + 1 < f.n_;
    if (has_c) {
      c_lu = la::lu_factor(sys.upper(i).view());
      if (!c_lu.ok()) {
        throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot,
                                        "ablation::transfer_rd_upper", i,
                                        c_lu.info - 1, c_lu.growth);
      }
      comm.charge_flops(la::lu_factor_flops(m) + lu_solve_flops(m, a ? 2 * m : m));
    }
    thetas[uz(k)] = build_theta(sys.diag(i), a, has_c ? &c_lu : nullptr);

    Matrix next(two_m, two_m);
    la::gemm(1.0, thetas[uz(k)].view(), seg.view(), 0.0, next.view());
    comm.charge_flops(gemm_flops(two_m, two_m, two_m));
    seg = std::move(next);
    if (opts.rescale) rescale_pow2(seg.view());
  }

  // --- 2. Hypercube exscan of the segment products (the log P term).
  auto op = [&](const Matrix& left, const Matrix& right) {
    Matrix out(two_m, two_m);
    la::gemm(1.0, right.view(), left.view(), 0.0, out.view());
    comm.charge_flops(gemm_flops(two_m, two_m, two_m));
    if (opts.rescale) rescale_pow2(out.view());
    return out;
  };
  auto ser = [](const Matrix& mat) {
    std::vector<std::byte> bytes;
    btds::append_matrix(bytes, mat.view());
    return bytes;
  };
  auto des = [two_m](std::span<const std::byte> bytes) {
    return btds::take_matrix(bytes, two_m, two_m);
  };
  std::optional<Matrix> incoming = mpsim::exscan(comm, std::move(seg), op, ser, des);

  // Entry pair [Z; Y] at the segment boundary: the global initial pair is
  // [I; 0], so the entry pair is the first M columns of the incoming
  // prefix matrix (identity for rank 0).
  Matrix pair(two_m, m);
  if (incoming) {
    la::copy(incoming->block(0, 0, two_m, m), pair.view());
  } else {
    for (la::index_t i = 0; i < m; ++i) pair(i, i) = 1.0;
  }

  // --- 3. Propagate the pair, recover pivots U_i, build per-row caches.
  f.u_lu_.resize(uz(nloc));
  f.phi_.resize(uz(nloc));
  f.g_.resize(uz(nloc));
  Matrix u_last(m, m);  // kept for the boundary exchange
  for (la::index_t k = 0; k < nloc; ++k) {
    const la::index_t i = f.lo_ + k;
    Matrix next(two_m, m);
    la::gemm(1.0, thetas[uz(k)].view(), pair.view(), 0.0, next.view());
    comm.charge_flops(gemm_flops(two_m, m, two_m));
    pair = std::move(next);
    if (opts.rescale) rescale_pow2(pair.view());

    const ConstMatrixView z = pair.block(0, 0, m, m);
    const ConstMatrixView y = pair.block(m, 0, m, m);
    la::LuFactors y_lu = la::lu_factor(y);
    comm.charge_flops(la::lu_factor_flops(m));
    if (!y_lu.ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot,
                                      "ablation::transfer_rd_pair", i, y_lu.info - 1, y_lu.growth);
    }
    // U_i = C_i Z_i Y_i^{-1} (ghost C = I on the last row).
    Matrix v;
    if (i + 1 < f.n_) {
      v = la::matmul(sys.upper(i).view(), z);
      comm.charge_flops(gemm_flops(m, m, m));
    } else {
      v = la::to_matrix(z);
    }
    Matrix u = la::right_divide(v.view(), y_lu);
    comm.charge_flops(lu_solve_flops(m, m));

    f.u_lu_[uz(k)] = la::lu_factor(u.view());
    comm.charge_flops(la::lu_factor_flops(m));
    if (!f.u_lu_[uz(k)].ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot,
                                      "ablation::transfer_rd_pivot", i,
                                      f.u_lu_[uz(k)].info - 1, f.u_lu_[uz(k)].growth);
    }
    if (i + 1 < f.n_) {
      f.g_[uz(k)] = la::lu_solve(f.u_lu_[uz(k)], sys.upper(i).view());
      comm.charge_flops(lu_solve_flops(m, m));
    } else {
      f.g_[uz(k)] = Matrix(m, m);  // G_{N-1} = 0
    }
    if (k == nloc - 1) u_last = std::move(u);
  }

  // Boundary exchange: rank r+1 needs U_{hi_r - 1} for its first Phi.
  if (f.rank_ + 1 < comm.size()) {
    comm.send_bytes(f.rank_ + 1, transfer_tags::kBoundaryU, ser(u_last));
  }
  la::LuFactors prev_u_lu;
  if (f.rank_ > 0) {
    const auto raw = comm.recv_bytes(f.rank_ - 1, transfer_tags::kBoundaryU);
    std::span<const std::byte> cursor(raw);
    prev_u_lu = la::lu_factor(btds::take_matrix(cursor, m, m));
    comm.charge_flops(la::lu_factor_flops(m));
    if (!prev_u_lu.ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot,
                                      "ablation::transfer_rd_boundary", f.lo_ - 1,
                                      prev_u_lu.info - 1, prev_u_lu.growth);
    }
  }
  for (la::index_t k = 0; k < nloc; ++k) {
    const la::index_t i = f.lo_ + k;
    if (i == 0) {
      f.phi_[uz(k)] = Matrix(m, m);  // Phi_0 = 0
    } else {
      const la::LuFactors& ulu = (k == 0) ? prev_u_lu : f.u_lu_[uz(k - 1)];
      f.phi_[uz(k)] = la::right_divide(sys.lower(i).view(), ulu);
      comm.charge_flops(lu_solve_flops(m, m));
    }
  }

  // --- 4. Matrix half of the forward / backward affine scans.
  Matrix fseg = Matrix::identity(m);
  for (la::index_t k = 0; k < nloc; ++k) {
    Matrix next(m, m);
    la::gemm(-1.0, f.phi_[uz(k)].view(), fseg.view(), 0.0, next.view());
    comm.charge_flops(gemm_flops(m, m, m));
    fseg = std::move(next);
  }
  f.fwd_ = factor_scan(comm, core::ScanDirection::kForward, AffineOp::Context{m}, std::move(fseg),
                       transfer_tags::kFwdFactor);

  Matrix bseg = Matrix::identity(m);
  for (la::index_t k = nloc - 1; k >= 0; --k) {
    Matrix next(m, m);
    la::gemm(-1.0, f.g_[uz(k)].view(), bseg.view(), 0.0, next.view());
    comm.charge_flops(gemm_flops(m, m, m));
    bseg = std::move(next);
  }
  f.bwd_ = factor_scan(comm, core::ScanDirection::kBackward, AffineOp::Context{m}, std::move(bseg),
                       transfer_tags::kBwdFactor);
  return f;
}

void TransferRdFactorization::solve(mpsim::Comm& comm, const la::Matrix& b, la::Matrix& x) const {
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "transfer_rd.solve");
  const la::index_t m = m_;
  const la::index_t nloc = hi_ - lo_;
  const la::index_t r = b.cols();
  btds::require_rhs(n_ * m, b, x, "ablation::TransferRdFactorization::solve");
  const auto uz = [](la::index_t k) { return static_cast<std::size_t>(k); };

  // Forward sweep, pass 1 (zero entry value): w_k = b_i - Phi_i w_{k-1}.
  Matrix w(nloc * m, r);
  for (la::index_t k = 0; k < nloc; ++k) {
    const la::index_t i = lo_ + k;
    MatrixView wk = local_block(w, k, m);
    la::copy(btds::block_row(b, i, m), wk);
    if (k > 0) {
      la::gemm(-1.0, phi_[uz(k)].view(), local_block(std::as_const(w), k - 1, m), 1.0, wk);
      comm.charge_flops(gemm_flops(m, r, m));
    }
  }
  // Cross-rank replay; incoming y at the segment entry.
  const std::optional<Matrix> y_in_opt =
      replay_scan(fwd_, comm, la::to_matrix(local_block(std::as_const(w), nloc - 1, m)),
                  transfer_tags::kFwdSolve);
  const Matrix y_in = y_in_opt ? *y_in_opt : Matrix(m, r);  // y_{-1} = 0
  // Pass 2 with the true entry value (the recurrence must read the
  // previous y, so the diagonal solves run in a separate loop below).
  for (la::index_t k = 0; k < nloc; ++k) {
    const la::index_t i = lo_ + k;
    MatrixView wk = local_block(w, k, m);
    la::copy(btds::block_row(b, i, m), wk);
    const ConstMatrixView prev =
        (k == 0) ? y_in.view() : local_block(std::as_const(w), k - 1, m);
    la::gemm(-1.0, phi_[uz(k)].view(), prev, 1.0, wk);
    comm.charge_flops(gemm_flops(m, r, m));
  }
  // Diagonal solves z = U^{-1} y, in place.
  for (la::index_t k = 0; k < nloc; ++k) {
    la::lu_solve_inplace(u_lu_[uz(k)], local_block(w, k, m));
    comm.charge_flops(lu_solve_flops(m, r));
  }

  // Backward sweep, pass 1 (zero entry from below): s_k = z_k - G_i s_{k+1}.
  Matrix s(nloc * m, r);
  for (la::index_t k = nloc - 1; k >= 0; --k) {
    MatrixView sk = local_block(s, k, m);
    la::copy(local_block(std::as_const(w), k, m), sk);
    if (k < nloc - 1) {
      la::gemm(-1.0, g_[uz(k)].view(), local_block(std::as_const(s), k + 1, m), 1.0, sk);
      comm.charge_flops(gemm_flops(m, r, m));
    }
  }
  const std::optional<Matrix> x_in_opt = replay_scan(
      bwd_, comm, la::to_matrix(local_block(std::as_const(s), 0, m)), transfer_tags::kBwdSolve);
  const Matrix x_in = x_in_opt ? *x_in_opt : Matrix(m, r);  // x_N = 0
  // Pass 2: x_i = z_i - G_i x_{i+1}, writing straight into the output.
  for (la::index_t k = nloc - 1; k >= 0; --k) {
    const la::index_t i = lo_ + k;
    MatrixView xi = btds::block_row(x, i, m);
    la::copy(local_block(std::as_const(w), k, m), xi);
    const ConstMatrixView below = (k == nloc - 1) ? x_in.view() : btds::block_row(x, i + 1, m);
    la::gemm(-1.0, g_[uz(k)].view(), below, 1.0, xi);
    comm.charge_flops(gemm_flops(m, r, m));
  }
}

la::Matrix transfer_rd_solve(const btds::BlockTridiag& sys, const la::Matrix& b, int nranks,
                             const TransferRdOptions& opts, const mpsim::EngineOptions& engine) {
  const btds::RowPartition part(sys.num_blocks(), nranks);
  Matrix x(b.rows(), b.cols());
  mpsim::run(
      nranks,
      [&](mpsim::Comm& comm) {
        const TransferRdFactorization f = TransferRdFactorization::factor(comm, sys, part, opts);
        f.solve(comm, b, x);
      },
      engine);
  return x;
}

}  // namespace ardbt::ablation
