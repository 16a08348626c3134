#pragma once

#include <optional>

#include "src/btds/serde.hpp"
#include "src/core/scan.hpp"
#include "src/la/gemm.hpp"

/// \file ops_affine.hpp
/// CachedScan operator for first-order affine recurrences
///     v_i = F_i v_{i-1} + g_i.
/// A segment's state is (F, g) with F the product of its element matrices
/// and g its output from a zero entry value. Composition (left covering
/// earlier elements) is
///     F = F_r F_l,   g = F_r g_l + g_r,
/// so the vector merge only needs the right operand's matrix — that is
/// the whole per-event cache. Used by the transfer-matrix recursive
/// doubling ablation's triangular sweeps (transfer_rd.hpp).

namespace ardbt::ablation {

struct AffineOp {
  struct Context {
    la::index_t m = 0;  ///< matrix order (block size)
  };
  using Mat = la::Matrix;  // m x m
  using Vec = la::Matrix;  // m x r

  struct Cache {
    la::Matrix f_right;
  };

  static Mat merge_mat(const Context& ctx, const Mat& left, const Mat& right, Cache& cache,
                       mpsim::Comm& comm) {
    Mat out(ctx.m, ctx.m);
    la::gemm(1.0, right.view(), left.view(), 0.0, out.view());
    comm.charge_flops(la::gemm_flops(ctx.m, ctx.m, ctx.m));
    cache.f_right = right;
    return out;
  }

  static Vec merge_vec(const Context& ctx, const Cache& cache, const Vec& left, const Vec& right,
                       mpsim::Comm& comm) {
    Vec out = right;
    la::gemm(1.0, cache.f_right.view(), left.view(), 1.0, out.view());
    comm.charge_flops(la::gemm_flops(ctx.m, left.cols(), ctx.m));
    return out;
  }

  static std::vector<std::byte> ser_mat(const Context&, const Mat& m) {
    std::vector<std::byte> bytes;
    btds::append_matrix(bytes, m.view());
    return bytes;
  }
  static Mat des_mat(const Context& ctx, std::span<const std::byte> bytes) {
    return btds::take_matrix(bytes, ctx.m, ctx.m);
  }
  static std::vector<std::byte> ser_vec(const Context& ctx, const Vec& v) {
    return ser_mat(ctx, v);
  }
  static Vec des_vec(const Context& ctx, std::span<const std::byte> bytes) {
    const auto r = static_cast<la::index_t>(bytes.size() / sizeof(double)) / ctx.m;
    return btds::take_matrix(bytes, ctx.m, r);
  }
};

using AffineScan = core::CachedScan<AffineOp>;

/// Matrix-part exscan of `seg`, this rank's segment product, with one
/// scan in flight: the Factoring stepper run to completion. Collective.
inline AffineScan factor_scan(mpsim::Comm& comm, core::ScanDirection dir, AffineOp::Context ctx,
                              la::Matrix seg, int tag) {
  AffineScan::Factoring f(comm, dir, ctx, std::move(seg), tag);
  while (!f.done()) f.finish_round(comm);
  return std::move(f).finish();
}

/// Replay of `scan` with this rank's segment vector part: the exclusive
/// prefix value, or nullopt on the sequence-first rank. Collective.
inline std::optional<la::Matrix> replay_scan(const AffineScan& scan, mpsim::Comm& comm,
                                             la::Matrix seg_vec, int tag) {
  AffineScan::Replay r(scan, comm, std::move(seg_vec), tag);
  while (!r.done()) r.finish_round(comm);
  return std::move(r).take_result();
}

}  // namespace ardbt::ablation
