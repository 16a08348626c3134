// Tests for the performance-attribution layer: critical-path analysis on
// a hand-built trace with a known answer (including the golden JSON
// projection), the partition invariants on a real engine run, bit-exact
// determinism across repeated runs and thread counts, the cost-model
// oracle, and the run_report v2 / bench-history plumbing.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/core/flops.hpp"
#include "src/core/solver.hpp"
#include "src/mpsim/engine.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/cost_model.hpp"
#include "src/obs/run_report.hpp"
#include "src/obs/trace.hpp"

namespace {

using namespace ardbt;

obs::TimeSample at(double t) { return {t, t}; }

// Two ranks, one message. Rank 0 computes [0,3], sends (alpha 0.5) at
// [3,3.5], computes [3.5,4]. Rank 1 computes [0,1], waits on the message
// [1,5], computes [5,8]. The critical path is rank 1's tail compute, the
// message in flight [3,5], then rank 0's head compute: 3+2+3 = 8.
void build_two_rank_fixture(obs::Tracer& tracer) {
  tracer.prepare(2);

  obs::RankTrace& r0 = tracer.rank(0);
  r0.complete(obs::SpanKind::kCompute, "compute", at(0.0), at(3.0), -1, 0);
  const std::uint64_t seq = r0.next_send_seq(1);
  r0.complete(obs::SpanKind::kSend, "send", at(3.0), at(3.5), /*peer=*/1, 100, seq);
  r0.complete(obs::SpanKind::kCompute, "compute", at(3.5), at(4.0), -1, 0);
  r0.complete(obs::SpanKind::kPhase, "ph", at(0.0), at(4.0), -1, 0);

  obs::RankTrace& r1 = tracer.rank(1);
  r1.complete(obs::SpanKind::kCompute, "compute", at(0.0), at(1.0), -1, 0);
  r1.complete(obs::SpanKind::kWait, "wait", at(1.0), at(5.0), /*peer=*/0, 100, seq);
  r1.complete(obs::SpanKind::kCompute, "compute", at(5.0), at(8.0), -1, 0);
  r1.complete(obs::SpanKind::kPhase, "ph", at(0.0), at(8.0), -1, 0);
}

TEST(Attribution, SyntheticTwoRankCriticalPath) {
  obs::Tracer tracer;
  build_two_rank_fixture(tracer);
  const obs::Attribution a = obs::analyze(tracer);

  EXPECT_EQ(a.nranks, 2);
  EXPECT_TRUE(a.complete);
  EXPECT_DOUBLE_EQ(a.makespan_s, 8.0);

  ASSERT_EQ(a.ranks.size(), 2u);
  EXPECT_DOUBLE_EQ(a.ranks[0].compute_s, 3.5);
  EXPECT_DOUBLE_EQ(a.ranks[0].send_s, 0.5);
  EXPECT_DOUBLE_EQ(a.ranks[0].wait_s, 0.0);
  EXPECT_DOUBLE_EQ(a.ranks[0].idle_s, 4.0);
  EXPECT_DOUBLE_EQ(a.ranks[1].compute_s, 4.0);
  EXPECT_DOUBLE_EQ(a.ranks[1].wait_s, 4.0);
  EXPECT_DOUBLE_EQ(a.ranks[1].idle_s, 0.0);

  const obs::CriticalPath& cp = a.critical_path;
  EXPECT_DOUBLE_EQ(cp.length_s, 8.0);
  EXPECT_DOUBLE_EQ(cp.compute_s, 6.0);
  EXPECT_DOUBLE_EQ(cp.comm_s, 2.0);  // [send begin 3, wait end 5]
  EXPECT_DOUBLE_EQ(cp.send_s, 0.0);  // the alpha charge sits inside comm
  EXPECT_DOUBLE_EQ(cp.wait_s, 0.0);
  EXPECT_DOUBLE_EQ(cp.unattributed_s, 0.0);
  EXPECT_EQ(cp.hops, 1u);
  EXPECT_EQ(cp.start_rank, 0);
  EXPECT_EQ(cp.end_rank, 1);
  ASSERT_EQ(cp.segments.size(), 3u);  // compute(r1), comm, compute(r0)
  EXPECT_EQ(cp.segments[0].rank, 1);
  EXPECT_EQ(cp.segments[1].from_rank, 0);
  EXPECT_EQ(cp.segments[2].rank, 0);
  ASSERT_EQ(cp.by_phase.count("ph"), 1u);
  EXPECT_DOUBLE_EQ(cp.by_phase.at("ph"), 8.0);

  // Phase stats: spans of 4 and 8 seconds land in log2 buckets 2 and 3,
  // so p50 reads the first bucket's upper bound.
  ASSERT_EQ(a.phases.count("ph"), 1u);
  const obs::PhaseStats& ph = a.phases.at("ph");
  EXPECT_EQ(ph.count, 2u);
  EXPECT_DOUBLE_EQ(ph.total_s, 12.0);
  EXPECT_DOUBLE_EQ(ph.max_s, 8.0);
  EXPECT_DOUBLE_EQ(ph.p50_s, 4.0);
  EXPECT_DOUBLE_EQ(ph.p90_s, 8.0);
  EXPECT_DOUBLE_EQ(ph.p99_s, 8.0);
}

// The JSON projection is part of run_report v2; pin it exactly.
TEST(Attribution, GoldenJson) {
  obs::Tracer tracer;
  build_two_rank_fixture(tracer);
  const std::string expected =
      R"({"nranks":2,"makespan_s":8,"complete":true,"dropped_events":0,)"
      R"("ranks":[{"compute_s":3.5,"send_s":0.5,"wait_s":0,"idle_s":4},)"
      R"({"compute_s":4,"send_s":0,"wait_s":4,"idle_s":0}],)"
      R"("phases":{"ph":{"count":2,"total_s":12,"max_s":8,"p50_s":4,"p90_s":8,"p99_s":8}},)"
      R"("critical_path":{"length_s":8,"compute_s":6,"send_s":0,"comm_s":2,"wait_s":0,)"
      R"("unattributed_s":0,"hops":1,"segments":3,"start_rank":0,"end_rank":1,)"
      R"("by_phase":{"ph":8}}})";
  EXPECT_EQ(obs::to_json(obs::analyze(tracer)).dump(), expected);
}

// Gaps between events become unattributed time; a wait whose seq matches
// no recorded send stays on-rank as wait.
TEST(Attribution, GapAndUnresolvableWait) {
  obs::Tracer tracer;
  tracer.prepare(1);
  obs::RankTrace& rt = tracer.rank(0);
  rt.complete(obs::SpanKind::kCompute, "compute", at(0.0), at(2.0), -1, 0);
  rt.complete(obs::SpanKind::kCompute, "compute", at(3.0), at(5.0), -1, 0);
  rt.complete(obs::SpanKind::kWait, "wait", at(5.0), at(6.0), /*peer=*/0, 0, /*seq=*/7);

  const obs::Attribution a = obs::analyze(tracer);
  const obs::CriticalPath& cp = a.critical_path;
  EXPECT_DOUBLE_EQ(cp.length_s, 6.0);
  EXPECT_DOUBLE_EQ(cp.compute_s, 4.0);
  EXPECT_DOUBLE_EQ(cp.wait_s, 1.0);
  EXPECT_DOUBLE_EQ(cp.unattributed_s, 1.0);  // the [2,3] hole
  EXPECT_EQ(cp.hops, 0u);
  ASSERT_EQ(cp.by_phase.count("(gap)"), 1u);
  EXPECT_DOUBLE_EQ(cp.by_phase.at("(gap)"), 1.0);
  EXPECT_DOUBLE_EQ(a.ranks[0].idle_s, 1.0);
}

TEST(Attribution, EmptyTracerIsBenign) {
  obs::Tracer tracer;
  const obs::Attribution a = obs::analyze(tracer);
  EXPECT_EQ(a.nranks, 0);
  EXPECT_DOUBLE_EQ(a.makespan_s, 0.0);
  EXPECT_TRUE(a.critical_path.segments.empty());
}

// --------------------------------------------- Engine-level invariants

/// R = 256 puts M*R = 1024 doubles in each solve message: longer on the
/// wire (8 KiB * beta) than the sender's alpha, so ranks wait for the
/// scan and the critical path crosses ranks.
void traced_session(obs::Tracer* tracer, int threads) {
  const la::index_t n = 64;
  const la::index_t m = 4;
  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, n, m);
  const auto b = btds::make_rhs(n, m, 256);
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  engine.tracer = tracer;
  engine.threads_per_rank = threads;
  (void)core::solve(core::Method::kArd, sys, b, /*nranks=*/4, {.engine = engine});
}

TEST(Attribution, PartitionsEngineMakespanExactly) {
  obs::Tracer tracer;
  traced_session(&tracer, /*threads=*/1);
  const obs::Attribution a = obs::analyze(tracer);

  ASSERT_EQ(a.nranks, 4);
  EXPECT_GT(a.makespan_s, 0.0);
  const obs::CriticalPath& cp = a.critical_path;
  EXPECT_DOUBLE_EQ(cp.length_s, a.makespan_s);
  const double parts = cp.compute_s + cp.send_s + cp.comm_s + cp.wait_s + cp.unattributed_s;
  EXPECT_NEAR(parts, cp.length_s, 1e-9 * cp.length_s);
  EXPECT_GT(cp.hops, 0u);  // ARD at P=4 must cross ranks

  for (const obs::RankBreakdown& b : a.ranks) {
    EXPECT_NEAR(b.compute_s + b.send_s + b.wait_s + b.idle_s, a.makespan_s,
                1e-9 * a.makespan_s);
  }
  EXPECT_EQ(a.phases.count("driver.factor"), 1u);
  EXPECT_EQ(a.phases.count("driver.solve"), 1u);
}

// A deliberately overflowed ring (tiny capacity against a real engine
// run) must degrade gracefully: attribution flags itself incomplete,
// reports the drop count, and still satisfies the partition invariants
// over the events that survived — never crashes or fabricates time.
TEST(Attribution, OverflowedRingStaysConsistent) {
  obs::TraceOptions options;
  options.ring_capacity = 16;  // orders of magnitude under the real count
  obs::Tracer tracer(options);
  traced_session(&tracer, /*threads=*/1);

  std::uint64_t dropped = 0;
  for (int r = 0; r < tracer.nranks(); ++r) dropped += tracer.rank(r).dropped();
  ASSERT_GT(dropped, 0u) << "fixture no longer overflows; shrink ring_capacity";

  const obs::Attribution a = obs::analyze(tracer);
  EXPECT_FALSE(a.complete);
  EXPECT_EQ(a.dropped_events, dropped);
  ASSERT_EQ(a.nranks, 4);
  EXPECT_GT(a.makespan_s, 0.0);

  const double tol = 1e-9 * a.makespan_s;
  for (const obs::RankBreakdown& b : a.ranks) {
    EXPECT_GE(b.compute_s, -tol);
    EXPECT_GE(b.send_s, -tol);
    EXPECT_GE(b.wait_s, -tol);
    EXPECT_GE(b.idle_s, -tol);
    EXPECT_NEAR(b.compute_s + b.send_s + b.wait_s + b.idle_s, a.makespan_s, tol);
  }
  const obs::CriticalPath& cp = a.critical_path;
  EXPECT_GT(cp.length_s, 0.0);
  EXPECT_LE(cp.length_s, a.makespan_s * (1.0 + 1e-9));
  EXPECT_NEAR(cp.compute_s + cp.send_s + cp.comm_s + cp.wait_s + cp.unattributed_s,
              cp.length_s, tol);
  // The projection must stay serializable and carry the incompleteness.
  const std::string json = obs::to_json(a).dump();
  EXPECT_NE(json.find("\"complete\":false"), std::string::npos);
}

// The whole attribution JSON must be bit-identical across repeated runs
// and across worker-pool sizes: it reads only virtual-time fields.
TEST(Attribution, JsonDeterministicAcrossRunsAndThreads) {
  obs::Tracer t1;
  obs::Tracer t2;
  obs::Tracer t3;
  traced_session(&t1, /*threads=*/1);
  traced_session(&t2, /*threads=*/1);
  traced_session(&t3, /*threads=*/3);
  const std::string j1 = obs::to_json(obs::analyze(t1)).dump();
  EXPECT_EQ(j1, obs::to_json(obs::analyze(t2)).dump());
  EXPECT_EQ(j1, obs::to_json(obs::analyze(t3)).dump());
}

// ------------------------------------------------------------ CostModel

TEST(CostModel, PredictsAlphaBetaGammaSum) {
  obs::CostModel model({/*seconds_per_flop=*/1e-9, /*alpha=*/1e-6, /*beta=*/1e-9});
  const obs::PhaseTerms t{/*flops=*/1e9, /*messages=*/10.0, /*bytes=*/1e6};
  EXPECT_DOUBLE_EQ(model.predict(t), 1.0 + 1e-5 + 1e-3);
}

TEST(CostModel, JudgeFlagsOutsideThresholdBand) {
  obs::CostModel model({/*seconds_per_flop=*/1.0, 0.0, 0.0}, /*flag_threshold=*/2.0);
  const obs::PhaseTerms one_flop{1.0, 0.0, 0.0};  // predicted exactly 1 s

  EXPECT_FALSE(model.judge("ok", one_flop, 1.0).flagged);
  EXPECT_FALSE(model.judge("at-upper", one_flop, 2.0).flagged);   // inclusive band
  EXPECT_FALSE(model.judge("at-lower", one_flop, 0.5).flagged);
  EXPECT_TRUE(model.judge("slow", one_flop, 2.5).flagged);
  EXPECT_TRUE(model.judge("fast", one_flop, 0.4).flagged);

  const obs::CostVerdict v = model.judge("slow", one_flop, 2.5);
  EXPECT_EQ(v.phase, "slow");
  EXPECT_DOUBLE_EQ(v.measured_s, 2.5);
  EXPECT_DOUBLE_EQ(v.predicted_s, 1.0);
  EXPECT_DOUBLE_EQ(v.ratio, 2.5);
}

TEST(CostModel, CalibrateRescalesUniformly) {
  obs::CostModel model({1.0, 1.0, 1.0});
  const obs::PhaseTerms t{1.0, 1.0, 1.0};  // predicted 3 s
  const double scale = model.calibrate(t, /*measured_s=*/6.0);
  EXPECT_DOUBLE_EQ(scale, 2.0);
  EXPECT_DOUBLE_EQ(model.predict(t), 6.0);
  EXPECT_FALSE(model.judge("anchor", t, 6.0).flagged);

  // Zero prediction: calibration is a no-op.
  obs::CostModel empty({0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(empty.calibrate(t, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(empty.predict(t), 0.0);
}

TEST(CostModel, PaperTermsPredictEngineTimes) {
  // End to end: the simulator charges exactly the flops/messages/bytes
  // the formulas count, so seeding the oracle with the engine's own
  // constants must land every phase within the 2x band at every P. This
  // is the model-vs-engine agreement the F2 table prints.
  const la::index_t n = 64;
  const la::index_t m = 4;
  const la::index_t r = 4;
  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, n, m);
  const auto b = btds::make_rhs(n, m, r);
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  const obs::CostModel oracle(engine.cost.oracle_constants());
  for (int p : {1, 2, 4}) {
    const auto ard = core::solve(core::Method::kArd, sys, b, p, {.engine = engine});
    const auto rd = core::solve(core::Method::kRdBatched, sys, b, p, {.engine = engine});
    const obs::CostVerdict verdicts[] = {
        oracle.judge("ard.factor", core::flops::ard_factor_terms(n, m, p), ard.factor_vtime),
        oracle.judge("ard.solve", core::flops::ard_solve_terms(n, m, r, p), ard.solve_vtime),
        oracle.judge("rd.solve", core::flops::rd_batched_terms(n, m, r, p), rd.solve_vtime)};
    for (const obs::CostVerdict& v : verdicts) {
      EXPECT_GT(v.predicted_s, 0.0) << v.phase << " P=" << p;
      EXPECT_FALSE(v.flagged) << v.phase << " P=" << p << ": measured/predicted = " << v.ratio;
    }
  }
}

// ------------------------------------------------- run_report v2 plumbing

TEST(RunReport, VersionTwoHeader) {
  EXPECT_EQ(obs::kRunReportVersion, 2);
  const obs::Json doc = obs::RunReportBuilder("test_tool").build();
  const std::string s = doc.dump();
  EXPECT_NE(s.find("\"schema\":\"ardbt.run_report\""), std::string::npos);
  EXPECT_NE(s.find("\"version\":2"), std::string::npos);
}

TEST(RunReport, HistoryAppendsHeaderThenCompactLines) {
  const std::string path = testing::TempDir() + "/ardbt_test_history.jsonl";
  std::remove(path.c_str());

  obs::RunReportBuilder builder("test_tool");
  obs::append_history_line(path, builder.build());
  obs::append_history_line(path, builder.build());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + two entries
  EXPECT_NE(lines[0].find("\"schema\":\"ardbt.bench_history\""), std::string::npos);
  EXPECT_EQ(lines[1], lines[2]);  // same document, compact single-line form
  EXPECT_NE(lines[1].find("\"schema\":\"ardbt.run_report\""), std::string::npos);
  EXPECT_EQ(lines[1].find('\n'), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
