#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/mpsim/comm.hpp"

/// \file collectives.hpp
/// The MPI-style collectives the solvers use, built from point-to-point
/// messages with the classic tree/hypercube algorithms, so the
/// virtual-time engine charges the textbook O(log P) costs:
///   barrier        — dissemination, ceil(log2 P) rounds
///   bcast          — binomial tree
///   allreduce_sum  — binomial-tree reduce to rank 0, then bcast
///   exscan         — hypercube, correct for non-commutative operators and
///                    any P; its deterministic schedule is exposed so the
///                    accelerated solver can replay it with cached operands.

namespace ardbt::mpsim {

/// Reserved tag space for collectives (user tags must stay below this).
namespace tags {
inline constexpr int kBarrier = 1 << 24;
inline constexpr int kBcast = (1 << 24) + 1;
inline constexpr int kReduce = (1 << 24) + 2;
inline constexpr int kExscan = (1 << 24) + 5;
}  // namespace tags

/// Block until every rank has entered the barrier (dissemination pattern).
void barrier(Comm& comm);

/// Broadcast `data` from `root` to all ranks (binomial tree). Every rank
/// must pass a buffer of identical size.
void bcast(Comm& comm, std::span<double> data, int root);

/// Elementwise-sum allreduce (binomial-tree reduce to rank 0, then bcast).
void allreduce_sum(Comm& comm, std::span<double> inout);

/// One step of the hypercube exscan schedule. `partner_is_lower` is true
/// when the partner's block covers strictly lower ranks than ours.
struct ScanStep {
  int partner = -1;
  bool partner_is_lower = false;
};

/// Deterministic exchange schedule executed by rank `rank` in exscan over
/// `size` ranks: ceil(log2 size) rounds, rounds whose partner does not
/// exist are omitted. The accelerated solver replays this schedule with
/// cached matrix operands (see core/ard).
std::vector<ScanStep> exscan_schedule(int rank, int size);

/// Generic exclusive scan for an associative, possibly non-commutative
/// operator. `op(left, right)` must combine a value covering lower ranks
/// (`left`) with one covering higher ranks (`right`). Returns the combined
/// value over all ranks strictly below this one, or nullopt on rank 0.
///
/// `ser(T) -> std::vector<std::byte>` and
/// `des(std::span<const std::byte>) -> T` put T on the wire.
template <typename T, typename Op, typename Ser, typename Des>
std::optional<T> exscan(Comm& comm, T local, Op op, Ser ser, Des des) {
  std::optional<T> result;
  T partial = std::move(local);
  for (const ScanStep& step : exscan_schedule(comm.rank(), comm.size())) {
    const std::vector<std::byte> mine = ser(partial);
    comm.send_bytes(step.partner, tags::kExscan, mine);
    const std::span<const std::byte> raw = comm.recv_bytes(step.partner, tags::kExscan);
    T tmp = des(raw);
    if (step.partner_is_lower) {
      // tmp covers the block of ranks immediately below ours.
      partial = op(tmp, partial);
      result = result ? op(std::move(tmp), *result) : std::move(tmp);
    } else {
      partial = op(partial, std::move(tmp));
    }
  }
  return result;
}

}  // namespace ardbt::mpsim
