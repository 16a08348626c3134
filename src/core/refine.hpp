#pragma once

#include <vector>

#include "src/core/ard.hpp"

/// \file refine.hpp
/// Iterative refinement on top of an ARD factorization: each step
/// computes the true residual r = B - T X on this rank's rows (the
/// halo-exchange apply of btds/halo.hpp, O(M^2 R N/P), which reads no
/// other rank's rows) and applies one ARD solve as the correction.
/// Because an ARD solve is so much cheaper than the factorization,
/// refinement is nearly free relative to factoring and drives the
/// residual to machine precision even on the ill-conditioned dial.

namespace ardbt::core {

/// Outcome of solve_refined.
struct RefineResult {
  int steps = 0;                       ///< correction steps performed
  std::vector<double> residual_norms;  ///< ||B - T X||_F before each step and after the last
};

/// Collective. Solve T X = B with `f`, then apply up to `max_steps` rounds
/// of iterative refinement, stopping early when the residual norm drops
/// below `tol * ||B||_F`. `b_local` and `x_local` are this rank's
/// (nloc*M) x R rows of B and X: row views of global matrices or
/// rank-local slices. `sys` is the whole system or this rank's slice and
/// must hold the rank's partition rows.
RefineResult solve_refined(mpsim::Comm& comm, const ArdFactorization& f,
                           const btds::BlockTridiag& sys, const btds::RowPartition& part,
                           la::ConstMatrixView b_local, la::MatrixView x_local,
                           int max_steps = 3, double tol = 1e-14);

}  // namespace ardbt::core
