#pragma once

#include "src/btds/block_tridiag.hpp"
#include "src/btds/partition.hpp"
#include "src/mpsim/comm.hpp"

/// \file distributed.hpp
/// Distributing a block tridiagonal system and its right-hand sides over
/// ranks. Each rank's share is a BlockTridiag slice holding only its
/// partition's block rows (the domain-decomposition layout a real MPI
/// deployment stores). The solvers read a slice and a shared whole system
/// the same way. Ways to build a slice:
///
///  * assemble locally (`BlockTridiag(n, m, part, rank)` + fill) — the
///    scalable path: no rank ever holds the whole system;
///  * `scatter(...)` — a root rank holds the whole system and ships each
///    rank its slice (one message per rank);
///  * `slice(...)` — copy a rank's rows out of a shared whole system;
///
/// plus `scatter_rows` / `gather_rows` for right-hand-side and solution
/// matrices with the same layout.

namespace ardbt::btds {

/// Tags used by the distribution helpers.
namespace dist_tags {
inline constexpr int kScatterSys = 40;
inline constexpr int kScatterRows = 41;
}  // namespace dist_tags

/// Root-driven distribution: `global` must be the whole N-row system of
/// order M on `root` (it is ignored elsewhere; the root throws
/// fault::InvalidArgumentError otherwise); every rank receives its slice.
/// Collective.
BlockTridiag scatter(mpsim::Comm& comm, const BlockTridiag* global, index_t num_blocks,
                     index_t block_size, const RowPartition& part, int root = 0);

/// Copy `rank`'s slice out of a shared system (no messages). `global`
/// must hold that rank's rows.
BlockTridiag slice(const BlockTridiag& global, const RowPartition& part, int rank);

/// Scatter the block rows of a global (N*M) x R matrix: returns this
/// rank's (nloc*M) x R slice. `global` significant at root only.
/// Collective; R is broadcast from the root's matrix.
Matrix scatter_rows(mpsim::Comm& comm, const Matrix* global, index_t block_size,
                    const RowPartition& part, int root = 0);

/// Gather per-rank (nloc*M) x R slices into the root's global matrix
/// (resized there); other ranks' `global` is untouched. Collective.
void gather_rows(mpsim::Comm& comm, const Matrix& local, Matrix* global, index_t block_size,
                 const RowPartition& part, int root = 0);

}  // namespace ardbt::btds
