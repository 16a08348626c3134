#include "src/core/pcr.hpp"

#include <algorithm>
#include <cmath>
#include <cassert>
#include <map>
#include <utility>

#include "src/btds/serde.hpp"
#include "src/fault/status.hpp"
#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/smallblock/smallblock.hpp"
#include "src/par/pool.hpp"

namespace ardbt::core {
namespace {

using btds::RowPartition;
using la::index_t;
using la::Matrix;

/// Presence pattern of the level-entry couplings (see header): at step s,
/// row j still couples downward iff j >= s and upward iff j + s <= N-1.
bool has_a(index_t j, index_t s) { return j >= s; }
bool has_c(index_t j, index_t s, index_t n) { return j + s <= n - 1; }

/// Global rows owned by [lo, hi) that the rank owning [plo, phi) needs at
/// step s (its -s and +s shifted windows, clipped to the domain). The two
/// windows can only overlap inside [plo, phi) itself, so no duplicates.
std::vector<index_t> rows_for_window(index_t plo, index_t phi, index_t s, index_t lo, index_t hi,
                                     index_t n) {
  std::vector<index_t> rows;
  const auto add = [&](index_t a, index_t b) {
    a = std::max({a, lo, index_t{0}});
    b = std::min({b, hi, n});
    for (index_t i = a; i < b; ++i) rows.push_back(i);
  };
  add(plo - s, phi - s);
  add(plo + s, phi + s);
  return rows;
}

/// One deterministic message per (sender, receiver) pair: the sender packs
/// `bytes_for_row` for every row the receiver's windows cover; the
/// receiver unpacks with the identical row list derived from the
/// partition.
template <typename PackFn, typename UnpackFn>
void exchange_rows(mpsim::Comm& comm, const RowPartition& part, index_t s, index_t n, int tag,
                   PackFn&& pack, UnpackFn&& unpack) {
  const int p = comm.size();
  const int me = comm.rank();
  const index_t lo = part.begin(me);
  const index_t hi = part.end(me);

  for (int peer = 0; peer < p; ++peer) {
    if (peer == me) continue;
    const auto rows = rows_for_window(part.begin(peer), part.end(peer), s, lo, hi, n);
    if (rows.empty()) continue;
    std::vector<std::byte> buffer;
    for (index_t i : rows) pack(i, buffer);
    comm.send_bytes(peer, tag, buffer);
  }
  for (int peer = 0; peer < p; ++peer) {
    if (peer == me) continue;
    const auto rows = rows_for_window(lo, hi, s, part.begin(peer), part.end(peer), n);
    if (rows.empty()) continue;
    const std::span<const std::byte> raw = comm.recv_bytes(peer, tag);
    std::span<const std::byte> cursor(raw);
    for (index_t i : rows) unpack(i, cursor);
    assert(cursor.empty());
  }
}

}  // namespace

PcrFactorization PcrFactorization::factor(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                                          const RowPartition& part) {
  PcrFactorization f;
  f.n_ = sys.num_blocks();
  f.m_ = sys.block_size();
  f.lo_ = part.begin(comm.rank());
  f.hi_ = part.end(comm.rank());
  f.part_ = part;
  const index_t n = f.n_;
  const index_t m = f.m_;
  const index_t nloc = f.hi_ - f.lo_;
  if (nloc < 1) {
    throw fault::InvalidArgumentError("core::PcrFactorization::factor",
                                      "every rank needs at least one block row (N >= P)");
  }
  btds::require_rows(sys, f.lo_, nloc, "core::PcrFactorization::factor");
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "pcr.factor");
  const auto uz = [](index_t k) { return static_cast<std::size_t>(k); };

  // Working copies of this rank's current-level blocks.
  std::vector<Matrix> a_cur(uz(nloc)), d_cur(uz(nloc)), c_cur(uz(nloc));
  for (index_t k = 0; k < nloc; ++k) {
    const index_t i = f.lo_ + k;
    d_cur[uz(k)] = sys.diag(i);
    if (i > 0) a_cur[uz(k)] = sys.lower(i);
    if (i + 1 < n) c_cur[uz(k)] = sys.upper(i);
  }

  namespace sb = la::smallblock;
  for (index_t s = 1; s < n; s *= 2) {
    Level level;
    level.step = s;
    level.rows.resize(uz(nloc));

    // Factor every current diagonal in one batched sweep, then fold the
    // per-row bookkeeping (flop charges, breakdown check, pivot stats) in
    // the seed's row order: identical totals within the same compute
    // region, identical first failure.
    std::vector<la::ConstMatrixView> d_views;
    d_views.reserve(uz(nloc));
    for (index_t k = 0; k < nloc; ++k) d_views.push_back(d_cur[uz(k)].view());
    std::vector<la::LuFactors> lus;
    sb::batched_lu_factor(m, d_views, lus);
    for (index_t k = 0; k < nloc; ++k) {
      const index_t j = f.lo_ + k;
      la::LuFactors& lu = lus[uz(k)];
      comm.charge_flops(la::lu_factor_flops(m));
      if (!lu.ok()) {
        throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot,
                                        "core::pcr_factor(step " + std::to_string(s) + ")", j,
                                        static_cast<std::int64_t>(lu.info - 1), lu.growth);
      }
      f.diag_.observe(lu.min_pivot_abs, lu.max_pivot_abs, j);
      level.rows[uz(k)] =
          RowCache{.d_lu = std::move(lu), .a = a_cur[uz(k)], .c = c_cur[uz(k)]};
    }

    // Local half-updates ha = D^{-1} A, hc = D^{-1} C, solved as one
    // batch against the just-cached level LUs.
    std::vector<Matrix> ha(uz(nloc)), hc(uz(nloc));
    std::vector<sb::LuSolveItem> half_items;
    half_items.reserve(2 * uz(nloc));
    double nsolves = 0.0;
    for (index_t k = 0; k < nloc; ++k) {
      const index_t j = f.lo_ + k;
      const la::LuFactors& lu = level.rows[uz(k)].d_lu;
      if (has_a(j, s)) {
        ha[uz(k)] = la::to_matrix(a_cur[uz(k)].view());
        half_items.push_back({&lu, ha[uz(k)].view()});
        nsolves += 1.0;
      }
      if (has_c(j, s, n)) {
        hc[uz(k)] = la::to_matrix(c_cur[uz(k)].view());
        half_items.push_back({&lu, hc[uz(k)].view()});
        nsolves += 1.0;
      }
    }
    sb::batched_lu_solve(m, half_items);
    comm.charge_flops(nsolves * la::lu_solve_flops(m, m));

    // Fetch remote neighbours' half-updates.
    std::map<index_t, std::pair<Matrix, Matrix>> remote;  // j -> (ha_j, hc_j)
    exchange_rows(
        comm, part, s, n, pcr_tags::kFactor,
        [&](index_t j, std::vector<std::byte>& buffer) {
          const index_t k = j - f.lo_;
          if (has_a(j, s)) btds::append_matrix(buffer, ha[uz(k)].view());
          if (has_c(j, s, n)) btds::append_matrix(buffer, hc[uz(k)].view());
        },
        [&](index_t j, std::span<const std::byte>& cursor) {
          std::pair<Matrix, Matrix> entry;
          if (has_a(j, s)) entry.first = btds::take_matrix(cursor, m, m);
          if (has_c(j, s, n)) entry.second = btds::take_matrix(cursor, m, m);
          remote.emplace(j, std::move(entry));
        });

    const auto get_ha = [&](index_t j) -> const Matrix& {
      if (j >= f.lo_ && j < f.hi_) return ha[uz(j - f.lo_)];
      return remote.at(j).first;
    };
    const auto get_hc = [&](index_t j) -> const Matrix& {
      if (j >= f.lo_ && j < f.hi_) return hc[uz(j - f.lo_)];
      return remote.at(j).second;
    };

    // Level update (reads the cached level-entry coefficients), swept as
    // two batched gemm families: the beta=1 diagonal updates and the
    // beta=0 off-diagonal rebuilds. Every item writes its own output
    // except one row's two diagonal updates, which stay in the seed's
    // a-then-c order — per-element operation order is unchanged.
    std::vector<Matrix> d_new(uz(nloc)), a_new(uz(nloc)), c_new(uz(nloc));
    std::vector<sb::GemmItem> d_items, off_items;
    double ngemms = 0.0;
    for (index_t k = 0; k < nloc; ++k) {
      const index_t i = f.lo_ + k;
      const RowCache& row = level.rows[uz(k)];
      d_new[uz(k)] = d_cur[uz(k)];
      if (has_a(i, s)) {
        d_items.push_back({row.a.view(), get_hc(i - s).view(), d_new[uz(k)].view()});
        ngemms += 1.0;
        if (has_a(i, 2 * s)) {
          a_new[uz(k)] = Matrix(m, m);
          off_items.push_back({row.a.view(), get_ha(i - s).view(), a_new[uz(k)].view()});
          ngemms += 1.0;
        }
      }
      if (has_c(i, s, n)) {
        d_items.push_back({row.c.view(), get_ha(i + s).view(), d_new[uz(k)].view()});
        ngemms += 1.0;
        if (has_c(i, 2 * s, n)) {
          c_new[uz(k)] = Matrix(m, m);
          off_items.push_back({row.c.view(), get_hc(i + s).view(), c_new[uz(k)].view()});
          ngemms += 1.0;
        }
      }
    }
    sb::batched_gemm(m, -1.0, d_items, 1.0);
    sb::batched_gemm(m, -1.0, off_items, 0.0);
    comm.charge_flops(ngemms * la::gemm_flops(m, m, m));
    for (index_t k = 0; k < nloc; ++k) {
      d_cur[uz(k)] = std::move(d_new[uz(k)]);
      a_cur[uz(k)] = std::move(a_new[uz(k)]);
      c_cur[uz(k)] = std::move(c_new[uz(k)]);
    }
    f.levels_.push_back(std::move(level));
  }

  // Fully decoupled: factor the final diagonals in one batched sweep.
  std::vector<la::ConstMatrixView> final_views;
  final_views.reserve(uz(nloc));
  for (index_t k = 0; k < nloc; ++k) final_views.push_back(d_cur[uz(k)].view());
  sb::batched_lu_factor(m, final_views, f.final_lu_);
  for (index_t k = 0; k < nloc; ++k) {
    comm.charge_flops(la::lu_factor_flops(m));
    const la::LuFactors& lu = f.final_lu_[uz(k)];
    if (!lu.ok()) {
      throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot,
                                      "core::pcr_factor(decoupled)", f.lo_ + k,
                                      static_cast<std::int64_t>(lu.info - 1), lu.growth);
    }
    f.diag_.observe(lu.min_pivot_abs, lu.max_pivot_abs, f.lo_ + k);
  }
  return f;
}

void PcrFactorization::solve(mpsim::Comm& comm, const la::Matrix& b, la::Matrix& x) const {
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "pcr.solve");
  const index_t n = n_;
  const index_t m = m_;
  const index_t nloc = hi_ - lo_;
  const index_t r = b.cols();
  btds::require_rhs(n * m, b, x, "core::PcrFactorization::solve");
  const auto uz = [](index_t k) { return static_cast<std::size_t>(k); };

  Matrix b_cur(nloc * m, r);
  la::copy(b.block(lo_ * m, 0, nloc * m, r), b_cur.view());

  // RHS columns never couple in PCR's solve recurrences, so each level's
  // block-row loops run per column panel, one panel per pool lane. Flop
  // charges are hoisted out of the parallel regions onto the rank thread:
  // totals (and hence the virtual clock) are independent of the pool size.
  par::Pool* pool = comm.pool();

  for (const Level& level : levels_) {
    const index_t s = level.step;
    // h_j = D_j^{-1} b_j with the cached level LU.
    Matrix h(nloc * m, r);
    par::parallel_for(
        pool, 0, r,
        [&](std::int64_t c0, std::int64_t c1) {
          const index_t w = static_cast<index_t>(c1 - c0);
          for (index_t k = 0; k < nloc; ++k) {
            la::MatrixView hk = h.block(k * m, static_cast<index_t>(c0), m, w);
            la::copy(b_cur.block(k * m, static_cast<index_t>(c0), m, w), hk);
            la::lu_solve_inplace(level.rows[uz(k)].d_lu, hk);
          }
        },
        "pcr.h");
    comm.charge_flops(static_cast<double>(nloc) * la::lu_solve_flops(m, r));
    std::map<index_t, Matrix> remote;
    exchange_rows(
        comm, part_, s, n, pcr_tags::kSolve,
        [&](index_t j, std::vector<std::byte>& buffer) {
          btds::append_matrix(buffer, h.block((j - lo_) * m, 0, m, r));
        },
        [&](index_t j, std::span<const std::byte>& cursor) {
          remote.emplace(j, btds::take_matrix(cursor, m, r));
        });
    const auto get_h = [&](index_t j) -> la::ConstMatrixView {
      if (j >= lo_ && j < hi_) return h.block((j - lo_) * m, 0, m, r);
      return remote.at(j).view();
    };

    double ngemms = 0.0;
    for (index_t k = 0; k < nloc; ++k) {
      const index_t i = lo_ + k;
      if (has_a(i, s)) ngemms += 1.0;
      if (has_c(i, s, n)) ngemms += 1.0;
    }
    par::parallel_for(
        pool, 0, r,
        [&](std::int64_t c0, std::int64_t c1) {
          const index_t w = static_cast<index_t>(c1 - c0);
          for (index_t k = 0; k < nloc; ++k) {
            const index_t i = lo_ + k;
            la::MatrixView bk = b_cur.block(k * m, static_cast<index_t>(c0), m, w);
            if (has_a(i, s)) {
              la::gemm(-1.0, level.rows[uz(k)].a.view(),
                       get_h(i - s).block(0, static_cast<index_t>(c0), m, w), 1.0, bk);
            }
            if (has_c(i, s, n)) {
              la::gemm(-1.0, level.rows[uz(k)].c.view(),
                       get_h(i + s).block(0, static_cast<index_t>(c0), m, w), 1.0, bk);
            }
          }
        },
        "pcr.update");
    comm.charge_flops(ngemms * la::gemm_flops(m, r, m));
  }

  par::parallel_for(
      pool, 0, r,
      [&](std::int64_t c0, std::int64_t c1) {
        const index_t w = static_cast<index_t>(c1 - c0);
        for (index_t k = 0; k < nloc; ++k) {
          la::MatrixView xk = x.block((lo_ + k) * m, static_cast<index_t>(c0), m, w);
          la::copy(b_cur.block(k * m, static_cast<index_t>(c0), m, w), xk);
          la::lu_solve_inplace(final_lu_[uz(k)], xk);
        }
      },
      "pcr.final");
  comm.charge_flops(static_cast<double>(nloc) * la::lu_solve_flops(m, r));
}

std::size_t PcrFactorization::storage_bytes() const {
  std::size_t doubles = 0;
  for (const Level& level : levels_) {
    for (const RowCache& row : level.rows) {
      doubles += static_cast<std::size_t>(row.d_lu.lu.size() + row.a.size() + row.c.size());
    }
  }
  for (const auto& lu : final_lu_) doubles += static_cast<std::size_t>(lu.lu.size());
  return doubles * sizeof(double);
}

double PcrFactorization::factor_flops(index_t n, index_t m, int p) {
  // Per row per level: one LU (2/3), two M-RHS solves (4), up to four
  // gemms (8) => ~12.7 M^3; ceil(log2 N) levels.
  const double m3 = static_cast<double>(m) * static_cast<double>(m) * static_cast<double>(m);
  double levels = 0;
  for (index_t s = 1; s < n; s *= 2) levels += 1;
  return std::ceil(static_cast<double>(n) / p) * (2.0 / 3.0 + 4.0 + 8.0) * m3 * levels;
}

double PcrFactorization::solve_flops(index_t n, index_t m, index_t r, int p) {
  // Per row per level: one solve (2 M^2 R) + two gemms (4 M^2 R), plus the
  // final decoupled solves.
  const double m2r = static_cast<double>(m) * static_cast<double>(m) * static_cast<double>(r);
  double levels = 0;
  for (index_t s = 1; s < n; s *= 2) levels += 1;
  return std::ceil(static_cast<double>(n) / p) * m2r * (6.0 * levels + 2.0);
}

}  // namespace ardbt::core
