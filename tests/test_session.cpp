#include "src/core/solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/btds/partition.hpp"
#include "src/btds/spmv.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::core {
namespace {

using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;

constexpr Method kAllMethods[] = {Method::kRdBatched, Method::kRdPerRhs, Method::kArd,
                                  Method::kPcr};

mpsim::EngineOptions charged() {
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  return engine;
}

TEST(Session, MatchesLegacyOneShotExactlyPerMethod) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3);
  const auto b = make_rhs(16, 3, 5);
  for (Method method : kAllMethods) {
    const DriverResult legacy = solve(method, sys, b, 4, {.engine = charged()});
    Session session(method, sys, 4, {.engine = charged()});
    session.factor();
    const la::Matrix x = session.solve(b);
    EXPECT_TRUE(x == legacy.x) << to_string(method);
  }
}

TEST(Session, StorageBytesAreTheLargestRanks) {
  // At P = 3 the end ranks hold one spike each and rank 1 both, so rank 1
  // holds the most here, and the session (and service::FactorCache, which
  // budgets on it) reports its bytes, not rank 0's.
  const auto sys = make_problem(ProblemKind::kDiagDominant, 24, 4);
  const btds::RowPartition part(24, 3);
  std::vector<std::size_t> bytes(3, 0);
  test::run_ranks(3, [&](mpsim::Comm& comm) {
    bytes[static_cast<std::size_t>(comm.rank())] =
        ArdFactorization::factor(comm, sys, part).storage_bytes();
  });
  EXPECT_LT(bytes[0], bytes[1]);
  EXPECT_LT(bytes[2], bytes[1]);
  Session session(Method::kArd, sys, 3, {.engine = charged()});
  session.factor();
  EXPECT_EQ(session.storage_bytes(), bytes[1]);
}

TEST(Session, FactorOnceThenRepeatedSolves) {
  const auto sys = make_problem(ProblemKind::kPoisson2D, 24, 4);
  const auto b1 = make_rhs(24, 4, 3, 1);
  const auto b2 = make_rhs(24, 4, 7, 2);
  Session session(Method::kArd, sys, 4, {.engine = charged()});
  EXPECT_FALSE(session.factored());
  session.factor();
  EXPECT_TRUE(session.factored());
  EXPECT_GT(session.factor_vtime(), 0.0);
  EXPECT_GT(session.storage_bytes(), 0u);

  const la::Matrix x1 = session.solve(b1);
  const la::Matrix x2 = session.solve(b2);
  ASSERT_EQ(session.solve_vtimes().size(), 2u);
  EXPECT_LT(btds::relative_residual(sys, x1, b1), 1e-10);
  EXPECT_LT(btds::relative_residual(sys, x2, b2), 1e-10);

  // Re-solving the same batch replays only the solve phase and must give
  // the identical answer.
  const la::Matrix x1_again = session.solve(b1);
  EXPECT_TRUE(x1_again == x1);
  // factor() stays idempotent.
  const double fv = session.factor_vtime();
  session.factor();
  EXPECT_EQ(session.factor_vtime(), fv);
}

TEST(Session, AutoFactorsOnFirstSolve) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 12, 2);
  const auto b = make_rhs(12, 2, 4);
  Session session(Method::kPcr, sys, 3, {.engine = charged()});
  const la::Matrix x = session.solve(b);
  EXPECT_TRUE(session.factored());
  EXPECT_GT(session.factor_vtime(), 0.0);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10);
}

TEST(Session, ClassicRdHasNoFactorPhase) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 12, 2);
  const auto b = make_rhs(12, 2, 2);
  for (Method method : {Method::kRdBatched, Method::kRdPerRhs}) {
    Session session(method, sys, 3, {.engine = charged()});
    const la::Matrix x = session.solve(b);
    EXPECT_EQ(session.factor_vtime(), 0.0) << to_string(method);
    EXPECT_GT(session.solve_vtimes().at(0), 0.0) << to_string(method);
    EXPECT_LT(btds::relative_residual(sys, x, b), 1e-9) << to_string(method);
  }
}

TEST(Session, SolutionsAreBitIdenticalAcrossThreadCounts) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 32, 6);
  const auto b = make_rhs(32, 6, 17);
  for (Method method : {Method::kArd, Method::kPcr}) {
    la::Matrix reference;
    for (int threads : {1, 2, 8}) {
      mpsim::EngineOptions engine = charged();
      engine.threads_per_rank = threads;
      Session session(method, sys, 4, {.engine = engine});
      session.factor();
      const la::Matrix x = session.solve(b);
      if (threads == 1) {
        reference = x;
        EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10) << to_string(method);
      } else {
        EXPECT_TRUE(x == reference) << to_string(method) << " threads=" << threads;
      }
    }
  }
}

TEST(Session, VirtualTimesAreIndependentOfThreadCount) {
  // Flop charges stay on the rank thread, so the modeled clock must not
  // move when workers split the kernels.
  const auto sys = make_problem(ProblemKind::kDiagDominant, 32, 6);
  const auto b = make_rhs(32, 6, 17);
  double ref_factor = 0.0, ref_solve = 0.0, ref_flops = 0.0;
  for (int threads : {1, 2, 8}) {
    mpsim::EngineOptions engine = charged();
    engine.threads_per_rank = threads;
    Session session(Method::kArd, sys, 4, {.engine = engine});
    session.factor();
    session.solve(b);
    if (threads == 1) {
      ref_factor = session.factor_vtime();
      ref_solve = session.solve_vtimes().at(0);
      ref_flops = session.report().totals().flops_charged;
      EXPECT_GT(ref_factor, 0.0);
      EXPECT_GT(ref_solve, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(session.factor_vtime(), ref_factor) << threads;
      EXPECT_DOUBLE_EQ(session.solve_vtimes().at(0), ref_solve) << threads;
      EXPECT_DOUBLE_EQ(session.report().totals().flops_charged, ref_flops) << threads;
    }
  }
}

TEST(Session, RunsChainOnOneVirtualTimeline) {
  // Each engine run resumes the session clock (vtime_origin), so the
  // report's virtual time keeps growing: factor < factor+solve < ...
  const auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3);
  const auto b = make_rhs(16, 3, 4);
  Session session(Method::kArd, sys, 4, {.engine = charged()});
  session.factor();
  const double after_factor = session.report().max_virtual_time();
  session.solve(b);
  const double after_one = session.report().max_virtual_time();
  session.solve(b);
  const double after_two = session.report().max_virtual_time();
  EXPECT_GT(after_factor, 0.0);
  EXPECT_GT(after_one, after_factor);
  EXPECT_GT(after_two, after_one);
}

TEST(Session, MeasuredPhaseTimesDoNotDependOnTracing) {
  // Under MeasuredCpu a phase's time is its rank's folded CPU time. At
  // P=1 nothing is sent, so only the clock read at the end of the run
  // folds it: the value must not depend on a tracer's span boundaries.
  const auto sys = make_problem(ProblemKind::kDiagDominant, 1024, 8);
  const auto b = make_rhs(1024, 8, 16);
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    obs::Tracer tracer;
    mpsim::EngineOptions engine;
    engine.timing = mpsim::TimingMode::MeasuredCpu;
    if (traced) engine.tracer = &tracer;
    Session session(Method::kArd, sys, 1, {.engine = engine});
    session.factor();
    EXPECT_GT(session.factor_vtime(), 0.0);
    EXPECT_EQ(session.factor_vtime(), session.report().ranks[0].cpu_seconds);
    (void)session.solve(b);
    ASSERT_EQ(session.solve_vtimes().size(), 1u);
    EXPECT_GT(session.solve_vtimes()[0], 0.0);
  }
}

TEST(Session, ServiceShapeSendsOnlyTheAlgorithmsMessages) {
  // No barrier brackets a phase: an ARD factor plus one single-column
  // solve at N=96, M=8, P=4 sends only its scans' 32 messages.
  const auto sys = make_problem(ProblemKind::kDiagDominant, 96, 8);
  Session session(Method::kArd, sys, 4, {.engine = charged()});
  session.factor();
  (void)session.solve(make_rhs(96, 8, 1));
  EXPECT_EQ(session.report().totals().msgs_sent, 32u);
}

TEST(Session, ArdSolveIsArenaSteadyStateAfterFirstSolve) {
  // The zero-allocation contract of the workspace arena: the first
  // solve(B) of a given shape may grow the per-rank arenas, but every
  // further solve of that shape must be satisfied entirely from pooled
  // slabs — the slab_allocs counters stop moving.
  const auto sys = make_problem(ProblemKind::kPoisson2D, 24, 4);
  const auto b = make_rhs(24, 4, 5, 3);
  const int nranks = 4;
  Session session(Method::kArd, sys, nranks, {.engine = charged()});
  session.factor();

  for (int r = 0; r < nranks; ++r) {
    const la::Workspace::Stats after_factor = session.arena_stats_after_factor(r);
    EXPECT_GT(after_factor.slab_allocs, 0u) << r;  // factor used the arena
    EXPECT_EQ(session.arena_stats(r).slab_allocs, after_factor.slab_allocs) << r;
  }

  session.solve(b);  // warm-up: sizes the solve-phase slabs
  std::vector<std::uint64_t> warm(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    warm[static_cast<std::size_t>(r)] = session.arena_stats(r).slab_allocs;
  }

  for (int repeat = 0; repeat < 3; ++repeat) {
    session.solve(b);
    for (int r = 0; r < nranks; ++r) {
      const la::Workspace::Stats s = session.arena_stats(r);
      EXPECT_EQ(s.slab_allocs, warm[static_cast<std::size_t>(r)])
          << "rank " << r << " allocated a new slab on steady-state solve " << repeat;
      EXPECT_GT(s.acquires, 0u) << r;  // arena is actually in use
    }
  }

  // Out-of-range queries are harmless zero stats.
  EXPECT_EQ(session.arena_stats(-1).acquires, 0u);
  EXPECT_EQ(session.arena_stats(nranks).acquires, 0u);

  // The registry export mirrors the per-rank counters. The solve-phase
  // slab count includes the warm-up solve, but is frozen in steady state.
  obs::MetricsRegistry reg;
  session.export_arena_metrics(reg);
  EXPECT_GT(reg.gauge("arena.high_water_bytes").value(), 0.0);
  const double solve_allocs = reg.gauge("arena.solve.slab_allocs").value();
  session.solve(b);
  obs::MetricsRegistry reg2;
  session.export_arena_metrics(reg2);
  EXPECT_EQ(reg2.gauge("arena.solve.slab_allocs").value(), solve_allocs);

  // The solve runs in place in the caller's rows: its arena scratch is a
  // set of M x R boundary vectors whose count does not grow with the rows
  // a rank owns, never a staging copy of the rank's nloc*M x R panel. At
  // 64 rows per rank one panel is well above that scratch, while staging
  // copies of b and of the solution would add two panels.
  const la::index_t n_big = 256;
  const auto sys_big = make_problem(ProblemKind::kPoisson2D, n_big, 4);
  const auto b_big = make_rhs(n_big, 4, 5, 3);
  Session big(Method::kArd, sys_big, nranks, {.engine = charged()});
  big.factor();
  big.solve(b_big);
  const btds::RowPartition part(n_big, nranks);
  for (int r = 0; r < nranks; ++r) {
    const std::uint64_t panel_bytes =
        static_cast<std::uint64_t>(part.count(r) * 4 * b_big.cols()) * sizeof(double);
    EXPECT_LT(big.arena_stats(r).high_water_bytes -
                  big.arena_stats_after_factor(r).high_water_bytes,
              panel_bytes)
        << "rank " << r;
  }
}

/// FNV-1a over the bit patterns of x's elements.
std::uint64_t bits_hash(const la::Matrix& x) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double v : x.data()) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    for (int k = 0; k < 8; ++k) {
      h ^= (u >> (8 * k)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

bool same_bits(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size_bytes()) == 0;
}

TEST(Session, CallerOwnedOutputOverwritesEveryElement) {
  // solve(b, x) writes the caller's matrix and the returning solve(b)
  // allocates its result uninitialized, so every path must write every
  // element: x pre-filled with NaN must come back bit-identical to
  // solve(b), and to the solution these shapes had when every solve
  // returned a zero-filled matrix (the pinned hashes).
  struct Case {
    Method method;
    fault::BreakdownPolicy policy;
    double plant_eps;  ///< planted pivot magnitude at block row 0; < 0 = none
    const char* action;
    std::uint64_t pinned;
  };
  const Case cases[] = {
      {Method::kRdBatched, fault::BreakdownPolicy::kFailFast, -1.0, "ok", 0x4012d0eddef59a54ull},
      {Method::kRdPerRhs, fault::BreakdownPolicy::kFailFast, -1.0, "ok", 0x4012d0eddef59a54ull},
      {Method::kArd, fault::BreakdownPolicy::kFailFast, -1.0, "ok", 0x4012d0eddef59a54ull},
      {Method::kPcr, fault::BreakdownPolicy::kFailFast, -1.0, "ok", 0x91ca14deeea29b44ull},
      {Method::kArd, fault::BreakdownPolicy::kRefine, 1e-13, "refine", 0x5dd8da5ae60145a5ull},
      {Method::kArd, fault::BreakdownPolicy::kFallback, 0.0, "fallback", 0x3619d352c3b8bbd0ull},
  };
  const la::Matrix b = make_rhs(24, 3, 5, 8);
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(to_string(c.method)) + " " + c.action);
    auto sys = make_problem(ProblemKind::kDiagDominant, 24, 3, 7);
    if (c.plant_eps >= 0.0) btds::plant_singular_pivot(sys, 0, c.plant_eps);
    mpsim::EngineOptions engine = charged();
    engine.on_breakdown = c.policy;

    Session returning(c.method, sys, 4, {.engine = engine});
    const la::Matrix ref = returning.solve(b);
    Session session(c.method, sys, 4, {.engine = engine});
    la::Matrix x(b.rows(), b.cols());
    x.fill(std::numeric_limits<double>::quiet_NaN());
    session.solve(b, x);
    ASSERT_NE(session.last_outcome(), nullptr);
    EXPECT_EQ(session.last_outcome()->action, c.action);
    EXPECT_TRUE(same_bits(x, ref));
    EXPECT_EQ(bits_hash(x), c.pinned);
    EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10);

    // A second solve into the same (now solved) matrix gives the same bits.
    session.solve(b, x);
    EXPECT_TRUE(same_bits(x, ref));
  }
}

/// A long-lived session (the service cache keeps its sessions for the
/// whole run) must not grow its robustness log with every healthy batch:
/// only the factor phase is logged, and last_outcome() still reports the
/// latest solve.
TEST(Session, HealthySolvesDoNotGrowTheOutcomeLog) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 8, 2);
  const la::Matrix b = make_rhs(8, 2, 1);
  Session session(Method::kArd, sys, 2, {.engine = charged()});
  la::Matrix x(b.rows(), b.cols());
  for (int k = 0; k < 10000; ++k) session.solve(b, x);
  ASSERT_EQ(session.outcomes().size(), 1u);
  EXPECT_EQ(session.outcomes()[0].phase, "factor");
  ASSERT_NE(session.last_outcome(), nullptr);
  EXPECT_EQ(session.last_outcome()->phase, "solve");
  EXPECT_EQ(session.last_outcome()->action, "ok");
  EXPECT_EQ(session.solve_vtimes().size(), 10000u);
}

TEST(Session, RejectsWronglyShapedOutputBeforeAnyRun) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 8, 2);
  const la::Matrix b = make_rhs(8, 2, 3);
  Session session(Method::kArd, sys, 2, {.engine = charged()});
  for (const auto& [rows, cols] : {std::pair<la::index_t, la::index_t>{15, 3}, {16, 2}, {0, 0}}) {
    la::Matrix x(rows, cols);
    try {
      session.solve(b, x);
      FAIL() << "x of " << rows << " x " << cols << " must throw";
    } catch (const fault::ShapeMismatchError& e) {
      EXPECT_EQ(e.code(), fault::ErrorCode::kShapeMismatch);
      EXPECT_EQ(e.got(), rows != 16 ? rows : cols);
      EXPECT_EQ(e.expected(), rows != 16 ? 16 : 3);
    }
  }
  // Nothing ran: not even the auto-factor before the first solve.
  EXPECT_FALSE(session.factored());
  EXPECT_TRUE(session.outcomes().empty());
  EXPECT_TRUE(session.solve_vtimes().empty());
}

TEST(Session, RejectsBadShapesAndRankCounts) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 8, 2);
  // Structured errors (fault:: taxonomy) rather than raw std exceptions,
  // so service-layer callers can dispatch on code().
  EXPECT_THROW(Session(Method::kArd, sys, 0), fault::InvalidArgumentError);
  try {
    Session(Method::kArd, sys, 0);
    FAIL() << "non-positive nranks must throw";
  } catch (const fault::SolveError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kInvalidArgument);
  }
  Session session(Method::kArd, sys, 2);
  const la::Matrix wrong(7, 3);
  EXPECT_THROW(session.solve(wrong), fault::ShapeMismatchError);
  try {
    session.solve(wrong);
    FAIL() << "wrong row count must throw";
  } catch (const fault::ShapeMismatchError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kShapeMismatch);
    EXPECT_EQ(e.got(), 7);
    EXPECT_EQ(e.expected(), 16);
  }
}

TEST(Session, RejectsFewerBlockRowsThanRanksBeforeAnyRun) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 3, 2);
  for (const Method method : kAllMethods) {
    try {
      Session(method, sys, 4, {.engine = charged()});
      FAIL() << to_string(method) << ": N < P must throw at construction";
    } catch (const fault::InvalidArgumentError& e) {
      EXPECT_EQ(e.code(), fault::ErrorCode::kInvalidArgument);
      EXPECT_NE(std::string(e.what()).find("N=3 < P=4"), std::string::npos) << e.what();
    }
  }
  // N == P is the smallest valid shape: one block row per rank.
  Session session(Method::kArd, sys, 3, {.engine = charged()});
  const la::Matrix b = make_rhs(3, 2, 1);
  EXPECT_LT(btds::relative_residual(sys, session.solve(b), b), 1e-10);
}

TEST(Session, SharedOwnershipKeepsSystemAlive) {
  // The owning constructor: the Session must stay valid after the caller
  // drops its last reference to the system (the FactorCache eviction
  // contract).
  auto sys = std::make_shared<const btds::BlockTridiag>(
      make_problem(ProblemKind::kDiagDominant, 8, 2));
  const la::Matrix b = make_rhs(8, 2, 3);
  Session session(Method::kArd, sys, 2, {.engine = charged()});
  session.factor();
  const std::weak_ptr<const btds::BlockTridiag> weak = sys;
  sys.reset();
  EXPECT_FALSE(weak.expired()) << "session must co-own the system";
  const la::Matrix x = session.solve(b);
  EXPECT_LT(btds::relative_residual(*weak.lock(), x, b), 1e-10);
  EXPECT_THROW(Session(Method::kArd, nullptr, 2), fault::InvalidArgumentError);
}

}  // namespace
}  // namespace ardbt::core
