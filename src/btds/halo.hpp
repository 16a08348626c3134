#pragma once

#include <optional>

#include "src/btds/distributed.hpp"

/// \file halo.hpp
/// Halo exchange and fully distributed operator application.
///
/// Applying a block tridiagonal operator to a row-distributed vector needs
/// each rank's first/last neighbour block rows — the one-deep "halo". With
/// it, residual computation (and therefore iterative refinement and any
/// outer Krylov loop) reads only this rank's rows of the operator and the
/// vectors: the message-passing data path, complementing the slices and
/// scatter_rows / gather_rows of distributed.hpp. The operator may be a
/// shared whole system or a slice; either way it must hold this rank's
/// partition rows.

namespace ardbt::btds {

/// Tags used by the halo helpers.
namespace halo_tags {
inline constexpr int kUp = 44;    ///< row sent to the next (higher) rank
inline constexpr int kDown = 45;  ///< row sent to the previous rank
}  // namespace halo_tags

/// One-deep halo of a row-distributed (nloc*M) x R matrix: the block row
/// just below `lo` and just above `hi-1`, when they exist.
struct Halo {
  std::optional<Matrix> below;  ///< block row lo-1 (absent on the first rank)
  std::optional<Matrix> above;  ///< block row hi   (absent on the last rank)
};

/// Collective. Exchange boundary block rows of `local` with the
/// neighbouring ranks. `local` holds this rank's rows for `part`
/// (fault::ShapeMismatchError otherwise).
Halo exchange_halo(mpsim::Comm& comm, la::ConstMatrixView local, index_t block_size,
                   const RowPartition& part);

/// Collective. b_local := T x_local on this rank's rows of `part`:
/// performs the halo exchange internally (and its shape check on
/// `x_local`). Throws fault::InvalidArgumentError unless `sys` holds
/// those rows.
Matrix apply_distributed(mpsim::Comm& comm, const BlockTridiag& sys, la::ConstMatrixView x_local,
                         const RowPartition& part);

/// Collective. B - T X on this rank's rows (apply_distributed, then the
/// subtraction from `b_local`).
Matrix residual_distributed(mpsim::Comm& comm, const BlockTridiag& sys,
                            la::ConstMatrixView x_local, la::ConstMatrixView b_local,
                            const RowPartition& part);

/// Collective. || B - T X ||_F / ||B||_F over the distributed slices
/// (allreduce of the squared norms). Every rank returns the same value.
double relative_residual_distributed(mpsim::Comm& comm, const BlockTridiag& sys,
                                     la::ConstMatrixView x_local, la::ConstMatrixView b_local,
                                     const RowPartition& part);

}  // namespace ardbt::btds
