#include "src/par/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/btds/thomas.hpp"
#include "src/fault/status.hpp"
#include "src/la/gemm.hpp"
#include "src/la/random.hpp"

namespace ardbt {
namespace {

using la::index_t;
using la::Matrix;

TEST(ChunkBounds, PartitionsExactlyAndInOrder) {
  for (int nchunks : {1, 2, 3, 7, 16}) {
    for (std::int64_t n : {0, 1, 5, 16, 100, 101}) {
      std::int64_t covered = 0;
      std::int64_t prev_hi = 3;  // begin
      for (int c = 0; c < nchunks; ++c) {
        const auto [lo, hi] = par::Pool::chunk_bounds(3, 3 + n, c, nchunks);
        EXPECT_EQ(lo, prev_hi) << "chunks must tile contiguously";
        EXPECT_LE(lo, hi);
        covered += hi - lo;
        prev_hi = hi;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_hi, 3 + n);
    }
  }
}

TEST(ChunkBounds, IsAPureFunctionOfItsArguments) {
  const auto a = par::Pool::chunk_bounds(0, 97, 2, 5);
  const auto b = par::Pool::chunk_bounds(0, 97, 2, 5);
  EXPECT_EQ(a, b);
}

TEST(Pool, RejectsNonPositiveThreadCount) {
  EXPECT_THROW(par::Pool(0), fault::InvalidArgumentError);
  EXPECT_THROW(par::Pool(-3), fault::InvalidArgumentError);
}

TEST(Pool, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 4, 8}) {
    par::Pool pool(threads);
    std::vector<int> hits(1000, 0);
    pool.parallel_for(0, 1000, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)] += 1;
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000) << "threads=" << threads;
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(Pool, EmptyRangeRunsNothing) {
  par::Pool pool(4);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { ran = true; });
  pool.parallel_for(5, 2, [&](std::int64_t, std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Pool, FreeHelperFallsBackToSerialWithoutPool) {
  std::int64_t seen_lo = -1, seen_hi = -1;
  par::parallel_for(nullptr, 2, 9, [&](std::int64_t lo, std::int64_t hi) {
    seen_lo = lo;
    seen_hi = hi;
  });
  EXPECT_EQ(seen_lo, 2);
  EXPECT_EQ(seen_hi, 9);
}

TEST(Pool, PropagatesChunkExceptionsAndStaysUsable) {
  par::Pool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::int64_t lo, std::int64_t) {
                                   if (lo == 0) throw std::runtime_error("chunk failed");
                                 }),
               std::runtime_error);
  // The pool must survive a failed job.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::int64_t lo, std::int64_t hi) {
    count += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(Pool, GemmIsBitIdenticalForAnyPoolSize) {
  la::Rng rng = la::make_rng(11, 0);
  const Matrix a = la::random_uniform(48, 64, rng);
  const Matrix b = la::random_uniform(64, 512, rng);
  Matrix c_ref(48, 512);
  la::gemm(1.0, a.view(), b.view(), 0.0, c_ref.view());
  for (int threads : {1, 2, 8}) {
    par::Pool pool(threads);
    Matrix c(48, 512);
    la::gemm(1.0, a.view(), b.view(), 0.0, c.view(), &pool);
    EXPECT_TRUE(c == c_ref) << "threads=" << threads;
  }
}

TEST(Pool, ThomasSolveIsBitIdenticalForAnyPoolSize) {
  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, 24, 6);
  const Matrix b = btds::make_rhs(24, 6, 33, /*seed=*/3);
  const auto f = btds::ThomasFactorization::factor(sys);
  const Matrix x_ref = f.solve(b);
  for (int threads : {1, 2, 8}) {
    par::Pool pool(threads);
    const Matrix x = f.solve(b, &pool);
    EXPECT_TRUE(x == x_ref) << "threads=" << threads;
  }
}

// Stress test for the fork-join handshake; run under -DARDBT_TSAN=ON this
// is the data-race gate for the pool.
TEST(PoolStress, ManySmallJobsFromManyEpochs) {
  par::Pool pool(8);
  std::vector<double> acc(64, 0.0);
  for (int job = 0; job < 500; ++job) {
    pool.parallel_for(0, static_cast<std::int64_t>(acc.size()),
                      [&](std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t i = lo; i < hi; ++i) acc[static_cast<std::size_t>(i)] += 1.0;
                      });
  }
  for (double v : acc) EXPECT_EQ(v, 500.0);
}

}  // namespace
}  // namespace ardbt
