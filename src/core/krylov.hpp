#pragma once

#include <vector>

#include "src/btds/halo.hpp"
#include "src/core/ard.hpp"

/// \file krylov.hpp
/// Distributed preconditioned conjugate gradients (PCG) with an ARD
/// factorization as the preconditioner.
///
/// The motivating pattern: the *true* operator is SPD block tridiagonal
/// with, say, time-varying coefficients; factoring it every step is
/// wasteful. Freeze a nearby matrix, factor it once with ARD, and run a
/// few PCG iterations per step — every iteration is one halo-exchange
/// apply (O(M^2 R N/P)) plus one ARD solve (O(M^2 R (N/P + log P))),
/// exactly the multi-right-hand-side regime the paper targets. With the
/// exact operator as its own preconditioner PCG converges in one
/// iteration (a test pins this).
///
/// Right-hand sides are treated as independent columns: dot products and
/// step lengths are computed per column (one allreduce of R values per
/// reduction), so a whole batch converges together.

namespace ardbt::core {

/// Outcome of a Krylov solve.
struct KrylovResult {
  int iterations = 0;
  bool converged = false;
  /// max-over-columns relative residual after each iteration (monitored
  /// from the recurrence; the final entry is recomputed exactly).
  std::vector<double> residual_norms;
};

/// Collective. Solve `op` X = B by PCG on the distributed slices: `op`
/// is the whole system or this rank's slice (it must hold the rank's
/// partition rows); `b_local` and `x_local` are the rank's rows.
///
/// `op` must be SPD. `precond` may be null (plain CG) or an ARD
/// factorization of an SPD matrix near `op`. `x_local` is used as the
/// initial guess if its shape matches `b_local` (otherwise it is resized
/// to zeros). Converges when every column's relative residual drops below
/// `tol`.
KrylovResult pcg(mpsim::Comm& comm, const btds::BlockTridiag& op,
                 const btds::RowPartition& part, const ArdFactorization* precond,
                 const la::Matrix& b_local, la::Matrix& x_local, int max_iters = 100,
                 double tol = 1e-10);

}  // namespace ardbt::core
