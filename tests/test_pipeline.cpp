// Tests for the latency-hiding scan pipeline (docs/PARALLELISM.md,
// "Latency-hiding pipeline"): the bit-identity contract of chunked RHS
// panels across thread counts, uneven partitions, the
// attribution-visible effect of panel pipelining on a comm-bound run,
// and the dynamic-tag registry the pipeline's concurrent scans lean on
// (regression: tag uniqueness used to be a comment, not a check).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/ard.hpp"
#include "src/core/solver.hpp"
#include "src/fault/status.hpp"
#include "src/mpsim/comm.hpp"
#include "src/mpsim/engine.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/trace.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt {
namespace {

using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::index_t;

mpsim::EngineOptions charged_engine(int threads = 1) {
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  engine.cost = mpsim::CostModel::cluster2014();
  engine.threads_per_rank = threads;
  engine.recv_timeout_wall = 30.0;  // a schedule deadlock fails typed, not hung
  return engine;
}

// 0.0 iff the two matrices agree bit-for-bit (same shape, all cells ==).
double max_abs_diff(const la::Matrix& a, const la::Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double d = 0.0;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      d = std::max(d, std::abs(a(i, j) - b(i, j)));
  return d;
}

la::Matrix pipeline_solve(const btds::BlockTridiag& sys, const la::Matrix& b, int p,
                          index_t chunk, int threads) {
  core::ArdOptions opts;
  opts.chunk_cols = chunk;
  return core::solve(core::Method::kArd, sys, b, p,
                     {.ard = opts, .engine = charged_engine(threads)})
      .x;
}

// Panel chunking never changes a single bit of the solution, for any
// thread count and any chunk size — the pipelined schedule reorders
// independent merges only and Thomas solves have column-independent FP
// sequences.
TEST(Pipeline, BitIdentityAcrossChunkThreads) {
  const index_t n = 96, m = 4, r = 6;
  const auto sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const auto b = make_rhs(n, m, r);

  // P=5: the interleaved scans must also complete on non-power-of-two
  // rank counts (their rounds go in hypercube-level order).
  for (const int p : {4, 5}) {
    const la::Matrix base = pipeline_solve(sys, b, p, 0, 1);
    EXPECT_LT(btds::relative_residual(sys, base, b), 1e-12);
    for (const int threads : {1, 3})
      for (const index_t chunk : {index_t{1}, index_t{0}, r}) {
        const la::Matrix x = pipeline_solve(sys, b, p, chunk, threads);
        EXPECT_EQ(max_abs_diff(base, x), 0.0)
            << "P=" << p << " threads=" << threads << " chunk=" << chunk;
      }
  }

  // Serial specialization (P=1) takes the same panel path and must agree too.
  const la::Matrix s_base = pipeline_solve(sys, b, 1, 0, 1);
  const la::Matrix s_pipe = pipeline_solve(sys, b, 1, 2, 1);
  EXPECT_EQ(max_abs_diff(s_base, s_pipe), 0.0);
}

// Regression (uneven partitions): with P <= N < 2P rank 0 owns two rows
// and the others one each. Every rank must replay the cross-rank scans
// on the same schedule whatever its row count (a per-rank choice of
// replay path once made solve() hang): the uneven fleet must complete,
// solve accurately, and stay bit-identical across chunk sizes.
TEST(Pipeline, UnevenPartitionDoesNotDeadlock) {
  const index_t n = 5, m = 3, r = 4;
  const int p = 4;  // rows split {2,1,1,1}
  const auto sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const auto b = make_rhs(n, m, r);

  const la::Matrix base = pipeline_solve(sys, b, p, 0, 1);
  EXPECT_LT(btds::relative_residual(sys, base, b), 1e-12);

  for (const index_t chunk : {index_t{1}, index_t{2}}) {
    const la::Matrix x = pipeline_solve(sys, b, p, chunk, 1);
    EXPECT_EQ(max_abs_diff(base, x), 0.0) << "chunk=" << chunk;
  }
}

struct PipelineRun {
  obs::Attribution attr;
  double solve_vtime = 0.0;
};

PipelineRun comm_bound_run(index_t chunk) {
  const index_t n = 64, m = 8, r = 32;
  const int p = 8;
  const auto sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const auto b = make_rhs(n, m, r);

  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  // Bandwidth-bound model: the beta * bytes term dominates, so chunked
  // panels have something worth hiding behind panel compute.
  engine.cost = {.alpha = 2e-6, .beta = 2e-8, .flop_rate = 2e9, .name = "comm_bound"};
  obs::Tracer tracer;
  engine.tracer = &tracer;

  core::ArdOptions opts;
  opts.chunk_cols = chunk;
  const auto res = core::solve(core::Method::kArd, sys, b, p, {.ard = opts, .engine = engine});
  EXPECT_LT(btds::relative_residual(sys, res.x, b), 1e-12);
  return {obs::analyze(tracer), res.solve_vtime};
}

// Panel pipelining must be visible to the attribution layer: on a
// comm-bound run, four pipelined panels shrink the critical path's
// blocked time (wait + in-flight comm) against one panel, and the solve
// makespan with it — the pipeline hides waits, it does not add work.
TEST(Pipeline, AttributionBlockedTimeShrinksWithChunking) {
  const PipelineRun off = comm_bound_run(0);
  const PipelineRun on = comm_bound_run(8);

  EXPECT_LT(on.solve_vtime, off.solve_vtime);
  EXPECT_LT(on.attr.makespan_s, off.attr.makespan_s);
  const double blocked_off = off.attr.critical_path.wait_s + off.attr.critical_path.comm_s;
  const double blocked_on = on.attr.critical_path.wait_s + on.attr.critical_path.comm_s;
  EXPECT_LT(blocked_on, blocked_off);
}

// Regression (tag registry): CachedScan used to document tag uniqueness
// in a comment only; a colliding tag silently cross-matched messages.
// Claiming a tag that is already in flight must now raise the typed
// error on every rank, before anything is posted.
TEST(TagAllocator, CollisionRaisesTypedError) {
  const index_t n = 16, m = 2;
  const int p = 2;
  const auto sys = make_problem(ProblemKind::kDiagDominant, n, m);
  std::atomic<int> caught{0};
  std::atomic<int> missed{0};

  test::run_ranks(
      p,
      [&](mpsim::Comm& comm) {
        mpsim::TagGuard hold(comm, core::ard_tags::kFwdFactor);
        try {
          (void)core::ArdFactorization::factor(comm, sys, btds::RowPartition(n, p));
          ++missed;
        } catch (const fault::TagCollisionError& e) {
          if (e.code() == fault::ErrorCode::kTagCollision &&
              e.tag() == core::ard_tags::kFwdFactor)
            ++caught;
        }
      },
      charged_engine());

  EXPECT_EQ(caught.load(), p);
  EXPECT_EQ(missed.load(), 0);
}

// next_tag() hands out tags from the dynamic range and never one that is
// currently held, so concurrent panel replays get distinct wire tags.
TEST(TagAllocator, NextTagSkipsHeldTags) {
  test::run_ranks(
      1,
      [&](mpsim::Comm& comm) {
        const int t0 = comm.next_tag();
        if (t0 < mpsim::Comm::kDynamicTagBase)
          throw std::logic_error("next_tag below the dynamic range");
        if (comm.next_tag() != t0)
          throw std::logic_error("next_tag claimed the tag it suggested");
        mpsim::TagGuard g0(comm, t0);
        const int t1 = comm.next_tag();
        if (t1 == t0) throw std::logic_error("next_tag returned a held tag");
        bool collided = false;
        try {
          comm.register_tag(t0);
        } catch (const fault::TagCollisionError&) {
          collided = true;
        }
        if (!collided) throw std::logic_error("re-registering a held tag did not throw");
        {
          mpsim::TagGuard g1(comm, t1);
          mpsim::TagGuard moved = std::move(g1);  // RAII handoff keeps the claim
          if (comm.next_tag() == t1) throw std::logic_error("moved guard dropped its tag");
        }
        if (comm.next_tag() != t1)
          throw std::logic_error("destroyed guard did not release its tag");
      },
      charged_engine());
}

}  // namespace
}  // namespace ardbt
