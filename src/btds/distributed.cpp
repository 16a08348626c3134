#include "src/btds/distributed.hpp"

#include "src/btds/serde.hpp"
#include "src/mpsim/collectives.hpp"

namespace ardbt::btds {

BlockTridiag scatter(mpsim::Comm& comm, const BlockTridiag* global, index_t num_blocks,
                     index_t block_size, const RowPartition& part, int root) {
  const index_t n = num_blocks;
  if (comm.rank() == root) {
    if (global == nullptr || global->num_blocks() != n || global->block_size() != block_size) {
      throw fault::InvalidArgumentError("btds::scatter",
                                        "the root needs the N-row system of order M");
    }
    require_rows(*global, 0, n, "btds::scatter");
    for (int peer = 0; peer < comm.size(); ++peer) {
      if (peer == root) continue;
      std::vector<std::byte> buffer;
      for (index_t i = part.begin(peer); i < part.end(peer); ++i) {
        if (i > 0) append_matrix(buffer, global->lower(i).view());
        append_matrix(buffer, global->diag(i).view());
        if (i + 1 < n) append_matrix(buffer, global->upper(i).view());
      }
      comm.send_bytes(peer, dist_tags::kScatterSys, buffer);
    }
    return slice(*global, part, root);
  }
  BlockTridiag local(n, block_size, part, comm.rank());
  const std::span<const std::byte> raw = comm.recv_bytes(root, dist_tags::kScatterSys);
  std::span<const std::byte> cursor(raw);
  for (index_t i = local.lo(); i < local.hi(); ++i) {
    if (i > 0) local.lower(i) = take_matrix(cursor, block_size, block_size);
    local.diag(i) = take_matrix(cursor, block_size, block_size);
    if (i + 1 < n) local.upper(i) = take_matrix(cursor, block_size, block_size);
  }
  assert(cursor.empty());
  return local;
}

BlockTridiag slice(const BlockTridiag& global, const RowPartition& part, int rank) {
  require_rows(global, part.begin(rank), part.count(rank), "btds::slice");
  BlockTridiag local(global.num_blocks(), global.block_size(), part, rank);
  for (index_t i = local.lo(); i < local.hi(); ++i) {
    if (i > 0) local.lower(i) = global.lower(i);
    local.diag(i) = global.diag(i);
    if (i + 1 < global.num_blocks()) local.upper(i) = global.upper(i);
  }
  return local;
}

Matrix scatter_rows(mpsim::Comm& comm, const Matrix* global, index_t block_size,
                    const RowPartition& part, int root) {
  // Broadcast the column count so non-root ranks can size their slices.
  double r_bcast[1] = {comm.rank() == root ? static_cast<double>(global->cols()) : 0.0};
  mpsim::bcast(comm, r_bcast, root);
  const auto r = static_cast<index_t>(r_bcast[0]);

  const index_t nloc = part.count(comm.rank());
  Matrix local(nloc * block_size, r);
  if (comm.rank() == root) {
    assert(global != nullptr && global->rows() == part.num_blocks() * block_size);
    for (int peer = 0; peer < comm.size(); ++peer) {
      if (peer == root) continue;
      const index_t rows = part.count(peer) * block_size;
      const Matrix slice =
          la::to_matrix(global->block(part.begin(peer) * block_size, 0, rows, r));
      comm.send(peer, dist_tags::kScatterRows, std::span<const double>(slice.data()));
    }
    la::copy(global->block(part.begin(root) * block_size, 0, nloc * block_size, r),
             local.view());
  } else {
    comm.recv_into(root, dist_tags::kScatterRows, std::span<double>(local.data()));
  }
  return local;
}

void gather_rows(mpsim::Comm& comm, const Matrix& local, Matrix* global, index_t block_size,
                 const RowPartition& part, int root) {
  const index_t r = local.cols();
  if (comm.rank() == root) {
    assert(global != nullptr);
    global->resize(part.num_blocks() * block_size, r);
    la::copy(local.view(),
             global->block(part.begin(root) * block_size, 0, local.rows(), r));
    for (int peer = 0; peer < comm.size(); ++peer) {
      if (peer == root) continue;
      const index_t rows = part.count(peer) * block_size;
      la::MatrixView dst = global->block(part.begin(peer) * block_size, 0, rows, r);
      Matrix buf(rows, r);
      comm.recv_into(peer, dist_tags::kScatterRows, std::span<double>(buf.data()));
      la::copy(buf.view(), dst);
    }
  } else {
    comm.send(root, dist_tags::kScatterRows, std::span<const double>(local.data()));
  }
}

}  // namespace ardbt::btds
