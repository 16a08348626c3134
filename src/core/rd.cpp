#include "src/core/rd.hpp"

namespace ardbt::core {

void rd_solve(mpsim::Comm& comm, const btds::BlockTridiag& sys, const btds::RowPartition& part,
              const la::Matrix& b, la::Matrix& x, const ArdOptions& opts) {
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "rd.solve");
  const ArdFactorization f = ArdFactorization::factor(comm, sys, part, opts);
  f.solve(comm, b, x);
}

void rd_solve_per_rhs(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                      const btds::RowPartition& part, const la::Matrix& b, la::Matrix& x,
                      const ArdOptions& opts) {
  btds::require_rhs(sys.dim(), b, x, "core::rd_solve_per_rhs");
  const la::index_t rows = b.rows();
  const la::index_t lo = part.begin(comm.rank()) * sys.block_size();
  const la::index_t hi = part.end(comm.rank()) * sys.block_size();

  la::Matrix bj(rows, 1);
  la::Matrix xj(rows, 1);
  for (la::index_t j = 0; j < b.cols(); ++j) {
    for (la::index_t i = lo; i < hi; ++i) bj(i, 0) = b(i, j);
    rd_solve(comm, sys, part, bj, xj, opts);
    for (la::index_t i = lo; i < hi; ++i) x(i, j) = xj(i, 0);
  }
}

}  // namespace ardbt::core
