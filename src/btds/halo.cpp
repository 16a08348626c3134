#include "src/btds/halo.hpp"

#include <cmath>

#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/mpsim/collectives.hpp"

namespace ardbt::btds {

Halo exchange_halo(mpsim::Comm& comm, la::ConstMatrixView local, index_t block_size,
                   const RowPartition& part) {
  const int rank = comm.rank();
  const index_t m = block_size;
  const index_t nloc = part.count(rank);
  const index_t r = local.cols();
  if (local.rows() != nloc * m) {
    throw fault::ShapeMismatchError("btds::exchange_halo", "local.rows() == nloc*M",
                                    local.rows(), nloc * m);
  }

  // Eager sends first (no deadlock), then receives.
  if (rank + 1 < comm.size()) {
    const Matrix last = la::to_matrix(local.block((nloc - 1) * m, 0, m, r));
    comm.send(rank + 1, halo_tags::kUp, std::span<const double>(last.data()));
  }
  if (rank > 0) {
    const Matrix first = la::to_matrix(local.block(0, 0, m, r));
    comm.send(rank - 1, halo_tags::kDown, std::span<const double>(first.data()));
  }

  Halo halo;
  if (rank > 0) {
    Matrix below(m, r);
    comm.recv_into(rank - 1, halo_tags::kUp, std::span<double>(below.data()));
    halo.below = std::move(below);
  }
  if (rank + 1 < comm.size()) {
    Matrix above(m, r);
    comm.recv_into(rank + 1, halo_tags::kDown, std::span<double>(above.data()));
    halo.above = std::move(above);
  }
  return halo;
}

Matrix apply_distributed(mpsim::Comm& comm, const BlockTridiag& sys, la::ConstMatrixView x_local,
                         const RowPartition& part) {
  const index_t m = sys.block_size();
  const index_t lo = part.begin(comm.rank());
  const index_t hi = part.end(comm.rank());
  const index_t nloc = hi - lo;
  const index_t r = x_local.cols();
  require_rows(sys, lo, nloc, "btds::apply_distributed");

  const Halo halo = exchange_halo(comm, x_local, m, part);
  Matrix out(nloc * m, r);
  for (index_t i = lo; i < hi; ++i) {
    const index_t k = i - lo;
    la::MatrixView oi = out.block(k * m, 0, m, r);
    la::gemm(1.0, sys.diag(i).view(), x_local.block(k * m, 0, m, r), 0.0, oi);
    comm.charge_flops(la::gemm_flops(m, r, m));
    if (i > 0) {
      const la::ConstMatrixView left =
          (k > 0) ? x_local.block((k - 1) * m, 0, m, r) : halo.below->view();
      la::gemm(1.0, sys.lower(i).view(), left, 1.0, oi);
      comm.charge_flops(la::gemm_flops(m, r, m));
    }
    if (i + 1 < sys.num_blocks()) {
      const la::ConstMatrixView right =
          (k + 1 < nloc) ? x_local.block((k + 1) * m, 0, m, r) : halo.above->view();
      la::gemm(1.0, sys.upper(i).view(), right, 1.0, oi);
      comm.charge_flops(la::gemm_flops(m, r, m));
    }
  }
  return out;
}

Matrix residual_distributed(mpsim::Comm& comm, const BlockTridiag& sys,
                            la::ConstMatrixView x_local, la::ConstMatrixView b_local,
                            const RowPartition& part) {
  Matrix r_local = apply_distributed(comm, sys, x_local, part);
  la::matrix_scal(-1.0, r_local.view());
  la::matrix_axpy(1.0, b_local, r_local.view());
  return r_local;
}

double relative_residual_distributed(mpsim::Comm& comm, const BlockTridiag& sys,
                                     la::ConstMatrixView x_local, la::ConstMatrixView b_local,
                                     const RowPartition& part) {
  const Matrix r_local = residual_distributed(comm, sys, x_local, b_local, part);
  double sums[2] = {0.0, 0.0};
  for (index_t i = 0; i < r_local.rows(); ++i) {
    for (double v : r_local.view().row(i)) sums[0] += v * v;
    for (double v : b_local.row(i)) sums[1] += v * v;
  }
  mpsim::allreduce_sum(comm, sums);
  const double bn = std::sqrt(sums[1]);
  const double rn = std::sqrt(sums[0]);
  return bn > 0.0 ? rn / bn : rn;
}

}  // namespace ardbt::btds
