#include "src/mpsim/collectives.hpp"

#include <cassert>

namespace ardbt::mpsim {
namespace {

/// Translate a virtual rank (relative to root) back to a real rank.
int from_vrank(int vrank, int root, int size) { return (vrank + root) % size; }

/// Elementwise-sum reduction into `inout` at rank 0 (binomial tree, the
/// mirror of bcast). On other ranks `inout` is consumed as the local
/// contribution and left unspecified afterwards.
void reduce_sum_to_root(Comm& comm, std::span<double> inout) {
  const int p = comm.size();
  const int r = comm.rank();
  std::vector<double> buf(inout.size());

  int mask = 1;
  while (mask < p) {
    if ((r & mask) == 0) {
      const int src = r | mask;
      if (src < p) {
        comm.recv_into(src, tags::kReduce, std::span<double>(buf));
        for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += buf[i];
      }
    } else {
      comm.send(r - mask, tags::kReduce, std::span<const double>(inout));
      break;
    }
    mask <<= 1;
  }
}

}  // namespace

void barrier(Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::byte token{0};
  for (int k = 1; k < p; k <<= 1) {
    const int to = (r + k) % p;
    const int from = (r - k % p + p) % p;
    comm.send_bytes(to, tags::kBarrier, std::span<const std::byte>(&token, 1));
    (void)comm.recv_bytes(from, tags::kBarrier);
  }
}

void bcast(Comm& comm, std::span<double> data, int root) {
  const int p = comm.size();
  const int r = comm.rank();
  assert(root >= 0 && root < p);
  const int vr = (r - root + p) % p;

  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      comm.recv_into(from_vrank(vr - mask, root, p), tags::kBcast, data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      comm.send(from_vrank(vr + mask, root, p), tags::kBcast, std::span<const double>(data));
    }
    mask >>= 1;
  }
}

void allreduce_sum(Comm& comm, std::span<double> inout) {
  reduce_sum_to_root(comm, inout);
  bcast(comm, inout, /*root=*/0);
}

std::vector<ScanStep> exscan_schedule(int rank, int size) {
  assert(rank >= 0 && rank < size);
  std::vector<ScanStep> steps;
  for (int mask = 1; mask < size; mask <<= 1) {
    const int partner = rank ^ mask;
    if (partner < size) {
      steps.push_back(ScanStep{.partner = partner, .partner_is_lower = partner < rank});
    }
  }
  return steps;
}

}  // namespace ardbt::mpsim
