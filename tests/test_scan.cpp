#include "src/core/scan.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "bench/ablation/ops_affine.hpp"
#include "src/la/gemm.hpp"
#include "src/la/random.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::ablation {
namespace {

using core::ScanDirection;
using la::index_t;
using la::Matrix;

/// Reference: sequential affine recurrence v_i = F_i v_{i-1} + g_i over
/// all elements, returning v at every position.
std::vector<Matrix> reference_affine(const std::vector<Matrix>& f, const std::vector<Matrix>& g) {
  std::vector<Matrix> v(f.size());
  Matrix prev(g[0].rows(), g[0].cols());  // v_{-1} = 0
  for (std::size_t i = 0; i < f.size(); ++i) {
    v[i] = g[i];
    la::gemm(1.0, f[i].view(), prev.view(), 1.0, v[i].view());
    prev = v[i];
  }
  return v;
}

/// Sweep the cached affine scan over rank counts and directions: factor
/// once, replay with two different RHS widths, compare the incoming
/// prefix vectors against the sequential recurrence.
class CachedAffine : public ::testing::TestWithParam<std::tuple<int, ScanDirection>> {};

TEST_P(CachedAffine, MatchesSequentialRecurrence) {
  const auto [p, dir] = GetParam();
  const index_t m = 3;
  const index_t elems_per_rank = 4;
  const index_t total = p * elems_per_rank;

  // Global element data, contraction-scaled to keep things tame.
  std::vector<Matrix> f_elems, g_elems_r2, g_elems_r5;
  la::Rng rng = la::make_rng(77);
  for (index_t i = 0; i < total; ++i) {
    Matrix f = la::random_uniform(m, m, rng, -0.4, 0.4);
    f_elems.push_back(std::move(f));
    g_elems_r2.push_back(la::random_uniform(m, 2, rng));
    g_elems_r5.push_back(la::random_uniform(m, 5, rng));
  }

  // The scan is over SEQUENCE positions; for a backward scan the element
  // order within the recurrence runs from the last rank to the first.
  auto seq_rank = [&](int rank) {
    return dir == ScanDirection::kForward ? rank : p - 1 - rank;
  };

  // seg matrix for sequence position s: product of its elements (later
  // element leftmost).
  auto seg_matrix = [&](int s) {
    Matrix seg = Matrix::identity(m);
    for (index_t k = 0; k < elems_per_rank; ++k) {
      const Matrix& f = f_elems[static_cast<std::size_t>(s * elems_per_rank + k)];
      Matrix next(m, m);
      la::gemm(1.0, f.view(), seg.view(), 0.0, next.view());
      seg = std::move(next);
    }
    return seg;
  };
  auto seg_vector = [&](int s, const std::vector<Matrix>& g_elems) {
    Matrix v(m, g_elems[0].cols());
    for (index_t k = 0; k < elems_per_rank; ++k) {
      const std::size_t idx = static_cast<std::size_t>(s * elems_per_rank + k);
      Matrix next = g_elems[idx];
      la::gemm(1.0, f_elems[idx].view(), v.view(), 1.0, next.view());
      v = std::move(next);
    }
    return v;
  };

  const std::vector<Matrix> ref2 = reference_affine(f_elems, g_elems_r2);
  const std::vector<Matrix> ref5 = reference_affine(f_elems, g_elems_r5);

  test::run_ranks(p, [&](mpsim::Comm& comm) {
    const int s = seq_rank(comm.rank());
    const auto scan = factor_scan(comm, dir, AffineOp::Context{m}, seg_matrix(s), /*tag=*/11);
    for (const auto* gset : {&g_elems_r2, &g_elems_r5}) {
      const auto& ref = gset == &g_elems_r2 ? ref2 : ref5;
      const auto incoming = replay_scan(scan, comm, seg_vector(s, *gset), /*tag=*/12);
      if (s == 0) {
        EXPECT_FALSE(incoming.has_value());
      } else {
        ASSERT_TRUE(incoming.has_value());
        // Incoming equals v at the last element of the previous segment.
        const Matrix& expect = ref[static_cast<std::size_t>(s * elems_per_rank - 1)];
        for (index_t i = 0; i < m; ++i) {
          for (index_t j = 0; j < expect.cols(); ++j) {
            EXPECT_NEAR((*incoming)(i, j), expect(i, j), 1e-11)
                << "rank " << comm.rank() << " seq " << s;
          }
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CachedAffine,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 8),
                       ::testing::Values(ScanDirection::kForward, ScanDirection::kBackward)),
    [](const auto& info) {
      return std::string("P") + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == ScanDirection::kForward ? "_fwd" : "_bwd");
    });

/// run_interleaved: a forward and a backward scan stepped together (both
/// phases) give bit-identical results to running each scan on its own,
/// and complete on every rank count, including non-powers of two.
TEST(CachedAffine, InterleavedScansMatchSequentialScans) {
  const index_t m = 3;
  for (int p = 1; p <= 9; ++p) {
    test::run_ranks(p, [&](mpsim::Comm& comm) {
      la::Rng rng = la::make_rng(100 + static_cast<std::uint64_t>(comm.rank()));
      const Matrix seg = la::random_uniform(m, m, rng, -0.4, 0.4);
      const Matrix vec = la::random_uniform(m, 2, rng);
      const AffineOp::Context ctx{m};

      const auto fwd = factor_scan(comm, ScanDirection::kForward, ctx, seg, 31);
      const auto bwd = factor_scan(comm, ScanDirection::kBackward, ctx, seg, 32);
      const auto fwd_x = replay_scan(fwd, comm, vec, 33);
      const auto bwd_x = replay_scan(bwd, comm, vec, 34);

      AffineScan::Factoring ff(comm, ScanDirection::kForward, ctx, seg, 41);
      AffineScan::Factoring fb(comm, ScanDirection::kBackward, ctx, seg, 42);
      core::run_interleaved(comm, ff, fb);
      const auto ifwd = std::move(ff).finish();
      const auto ibwd = std::move(fb).finish();
      AffineScan::Replay rf(ifwd, comm, vec, 43);
      AffineScan::Replay rb(ibwd, comm, vec, 44);
      core::run_interleaved(comm, rf, rb);
      const auto ifwd_x = std::move(rf).take_result();
      const auto ibwd_x = std::move(rb).take_result();

      const auto same = [](const Matrix& a, const Matrix& b) {
        if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
        for (index_t i = 0; i < a.rows(); ++i)
          for (index_t j = 0; j < a.cols(); ++j)
            if (a(i, j) != b(i, j)) return false;
        return true;
      };
      ASSERT_EQ(ifwd.has_incoming(), fwd.has_incoming());
      ASSERT_EQ(ibwd.has_incoming(), bwd.has_incoming());
      if (fwd.has_incoming()) {
        EXPECT_TRUE(same(ifwd.incoming_mat(), fwd.incoming_mat()));
      }
      if (bwd.has_incoming()) {
        EXPECT_TRUE(same(ibwd.incoming_mat(), bwd.incoming_mat()));
      }
      ASSERT_EQ(ifwd_x.has_value(), fwd_x.has_value());
      ASSERT_EQ(ibwd_x.has_value(), bwd_x.has_value());
      if (fwd_x) {
        EXPECT_TRUE(same(*ifwd_x, *fwd_x)) << "P=" << p << " rank " << comm.rank();
      }
      if (bwd_x) {
        EXPECT_TRUE(same(*ibwd_x, *bwd_x)) << "P=" << p << " rank " << comm.rank();
      }
    });
  }
}

TEST(CachedAffine, IncomingMatIsPrefixProduct) {
  const index_t m = 2;
  test::run_ranks(3, [&](mpsim::Comm& comm) {
    // Segment matrix of rank r is diag(r + 2).
    Matrix seg = Matrix::identity(m);
    seg.scale(static_cast<double>(comm.rank() + 2));
    const auto scan =
        factor_scan(comm, ScanDirection::kForward, AffineOp::Context{m}, std::move(seg), 21);
    if (comm.rank() == 0) {
      EXPECT_FALSE(scan.has_incoming());
    } else {
      double expect = 1.0;
      for (int r = 0; r < comm.rank(); ++r) expect *= static_cast<double>(r + 2);
      EXPECT_TRUE(scan.has_incoming());
      EXPECT_NEAR(scan.incoming_mat()(0, 0), expect, 1e-12);
      EXPECT_NEAR(scan.incoming_mat()(1, 0), 0.0, 1e-12);
    }
  });
}

}  // namespace
}  // namespace ardbt::ablation
