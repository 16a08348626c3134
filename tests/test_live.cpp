// Tests for the live-telemetry layer (src/obs/live): structured log
// format and rate limiting, flight-recorder retention edges, snapshot
// cadence, the online watchdogs, postmortem bundles, and the acceptance
// soak — a long chained-solve session whose telemetry memory stays
// bounded while solutions and vtimes remain bit-identical to an
// uninstrumented run.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/core/solver.hpp"
#include "src/fault/status.hpp"
#include "src/mpsim/engine.hpp"
#include "src/obs/live/log.hpp"
#include "src/obs/live/postmortem.hpp"
#include "src/obs/live/recorder.hpp"
#include "src/obs/live/sink.hpp"
#include "src/obs/live/snapshot.hpp"
#include "src/obs/live/telemetry.hpp"
#include "src/obs/live/watchdog.hpp"
#include "src/obs/metrics.hpp"

namespace {

using namespace ardbt;
using namespace ardbt::obs::live;

// ------------------------------------------------------------------ Log

TEST(Log, HeaderThenRecordsWithMonotoneSequence) {
  MemorySink sink;
  Log log(&sink);
  EXPECT_TRUE(log.info("test.site", "first", 0.25));
  EXPECT_TRUE(log.warn("test.site", "second"));
  ASSERT_EQ(sink.lines().size(), 3u);
  EXPECT_EQ(sink.lines()[0], R"({"schema":"ardbt.log","version":1})");
  EXPECT_NE(sink.lines()[1].find(R"("type":"log","n":0)"), std::string::npos);
  EXPECT_NE(sink.lines()[1].find(R"("t_s":0.25)"), std::string::npos);
  EXPECT_NE(sink.lines()[1].find(R"("level":"info")"), std::string::npos);
  EXPECT_NE(sink.lines()[1].find(R"("site":"test.site")"), std::string::npos);
  EXPECT_NE(sink.lines()[2].find(R"("n":1)"), std::string::npos);
  // t_s < 0 omits the timestamp entirely rather than writing a fake one.
  EXPECT_EQ(sink.lines()[2].find("t_s"), std::string::npos);
}

TEST(Log, MinLevelFiltersAndFieldsSerialize) {
  MemorySink sink;
  Log log(&sink, {.min_level = LogLevel::kWarn});
  EXPECT_FALSE(log.info("s", "dropped"));
  obs::Json fields = obs::Json::object();
  fields.set("ratio", 2.5);
  fields.set("phase", "factor");
  EXPECT_TRUE(log.error("s", "kept", 1.0, std::move(fields)));
  ASSERT_EQ(sink.lines().size(), 2u);  // header + error record
  EXPECT_NE(sink.lines()[1].find(R"("fields":{)"), std::string::npos);
  EXPECT_NE(sink.lines()[1].find(R"("ratio":2.5)"), std::string::npos);
  EXPECT_EQ(log.records_written(), 1u);
}

TEST(Log, RateLimitSuppressesThenSummarizes) {
  MemorySink sink;
  Log log(&sink, {.max_per_site = 2, .header = false});
  for (int i = 0; i < 5; ++i) log.info("flood.site", "spam", 0.0);
  log.info("calm.site", "fine", 0.0);
  EXPECT_EQ(log.records_written(), 3u);
  EXPECT_EQ(log.records_suppressed(), 3u);

  log.flush_suppressed();
  ASSERT_EQ(sink.lines().size(), 4u);  // 3 records + 1 summary
  const std::string& summary = sink.lines().back();
  EXPECT_NE(summary.find(R"("site":"log.suppressed")"), std::string::npos);
  EXPECT_NE(summary.find(R"("count":3)"), std::string::npos);
  EXPECT_NE(summary.find("flood.site"), std::string::npos);

  // Idempotent: a second flush (and close) adds nothing.
  log.flush_suppressed();
  log.close();
  EXPECT_EQ(sink.lines().size(), 4u);
}

TEST(Log, RateLimitIsPerSiteAndLevel) {
  MemorySink sink;
  Log log(&sink, {.max_per_site = 1, .header = false});
  EXPECT_TRUE(log.info("s", "a"));
  EXPECT_FALSE(log.info("s", "b"));   // same (site, level): suppressed
  EXPECT_TRUE(log.warn("s", "c"));    // same site, different level: fresh budget
}

// --------------------------------------------------------- FlightRecorder

TEST(Recorder, RingKeepsNewestOldestFirst) {
  FlightRecorder rec({.capacity = 3});
  rec.prepare(1);
  RecorderChannel* ch = rec.channel(0);
  ASSERT_NE(ch, nullptr);
  for (int i = 0; i < 5; ++i) ch->record_mark("m", static_cast<double>(i), i);
  const auto events = ch->events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events.front().vtime, 2.0);
  EXPECT_DOUBLE_EQ(events.back().vtime, 4.0);
  EXPECT_EQ(ch->total_recorded(), 5u);
  EXPECT_EQ(ch->dropped(), 2u);
}

TEST(Recorder, CapacityZeroCountsButStoresNothing) {
  FlightRecorder rec({.capacity = 0});
  rec.prepare(1);
  RecorderChannel* ch = rec.channel(0);
  ASSERT_NE(ch, nullptr);
  for (int i = 0; i < 10; ++i) ch->record_mark("m", static_cast<double>(i));
  EXPECT_TRUE(ch->events().empty());
  EXPECT_EQ(ch->dropped(), 10u);
  rec.note_anomaly("edge", 10.0, "anomaly over an empty ring must not crash");
  ASSERT_EQ(rec.anomalies().size(), 1u);
  EXPECT_TRUE(rec.anomalies()[0].tail.empty());
  EXPECT_FALSE(rec.to_json().dump().empty());
}

TEST(Recorder, CapacityOneKeepsExactlyTheLastEvent) {
  FlightRecorder rec({.capacity = 1});
  rec.prepare(2);
  for (int i = 0; i < 4; ++i) rec.channel(1)->record_mark("m", static_cast<double>(i));
  const auto events = rec.channel(1)->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].vtime, 3.0);
  EXPECT_EQ(events[0].channel, 1);
}

TEST(Recorder, AnomalyBurstEvictsOldest) {
  FlightRecorder rec({.capacity = 8, .tail_keep = 4, .max_anomalies = 3});
  rec.prepare(1);
  for (int i = 0; i < 10; ++i) {
    rec.driver().record_mark("tick", static_cast<double>(i));
    rec.note_anomaly("burst", static_cast<double>(i), "detail " + std::to_string(i));
  }
  EXPECT_EQ(rec.anomalies_noted(), 10u);
  ASSERT_EQ(rec.anomalies().size(), 3u);  // oldest 7 evicted
  EXPECT_EQ(rec.anomalies().front().detail, "detail 7");
  EXPECT_EQ(rec.anomalies().back().detail, "detail 9");
  EXPECT_LE(rec.anomalies().back().tail.size(), 4u);
}

TEST(Recorder, HeadSamplingKeepsFirstSpansPerPhase) {
  FlightRecorder rec({.capacity = 4, .head_per_phase = 2, .max_head_phases = 2});
  rec.prepare(1);
  for (int i = 0; i < 5; ++i) rec.driver().record_span("phase.a", static_cast<double>(i), 0.5);
  rec.driver().record_span("phase.b", 10.0, 0.5);
  rec.driver().record_span("phase.c", 11.0, 0.5);  // over max_head_phases: untracked
  const auto& head = rec.head_samples();
  ASSERT_EQ(head.count("phase.a"), 1u);
  EXPECT_EQ(head.at("phase.a").size(), 2u);  // first 2 of 5
  EXPECT_EQ(head.count("phase.b"), 1u);
  EXPECT_EQ(head.count("phase.c"), 0u);
}

TEST(Recorder, DisabledHandsOutNullChannelsAndIgnoresEverything) {
  FlightRecorder rec;
  rec.set_enabled(false);
  rec.prepare(2);
  EXPECT_EQ(rec.channel(0), nullptr);
  rec.driver().record_mark("m", 1.0);
  rec.note_anomaly("kind", 1.0);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_EQ(rec.anomalies_noted(), 0u);
}

TEST(Recorder, MaxResidentEventsBoundsMemory) {
  const RecorderOptions opts{.capacity = 16,
                             .head_per_phase = 2,
                             .max_head_phases = 4,
                             .tail_keep = 8,
                             .max_anomalies = 2};
  FlightRecorder rec(opts);
  rec.prepare(3);
  // ranks+driver rings, head samples, anomaly tails (metadata is not an
  // event, so each anomaly holds exactly tail_keep events).
  const std::size_t bound = (3 + 1) * 16 + 4 * 2 + 2 * 8;
  EXPECT_EQ(rec.max_resident_events(), bound);
}

TEST(Recorder, RecentMergesChannelsByTime) {
  FlightRecorder rec({.capacity = 8});
  rec.prepare(2);
  rec.channel(0)->record_mark("a", 1.0);
  rec.channel(1)->record_mark("b", 0.5);
  rec.driver().record_mark("c", 2.0);
  const auto recent = rec.recent(10);
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_DOUBLE_EQ(recent[0].vtime, 0.5);
  EXPECT_DOUBLE_EQ(recent[2].vtime, 2.0);
}

// ------------------------------------------------------------ Snapshotter

TEST(Snapshot, CadenceEmitsOncePerCrossingWithoutBacklog) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(std::uint64_t{1});
  MemorySink sink;
  Snapshotter snap(&sink, &registry, {.period_s = 1.0});
  EXPECT_TRUE(snap.tick(0.5));    // first tick: baseline snapshot
  EXPECT_FALSE(snap.tick(0.75));  // before the next boundary
  EXPECT_TRUE(snap.tick(1.25));   // crossed 1.0
  EXPECT_FALSE(snap.tick(1.5));   // same period
  EXPECT_TRUE(snap.tick(7.0));    // idle gap: ONE snapshot, no backlog
  EXPECT_FALSE(snap.tick(7.5));
  EXPECT_EQ(snap.snapshots_written(), 3u);
  ASSERT_EQ(sink.lines().size(), 4u);  // header + 3 snapshots
  EXPECT_EQ(sink.lines()[0], R"({"schema":"ardbt.metrics_snapshot","version":1})");
  EXPECT_NE(sink.lines()[1].find(R"("type":"snapshot","n":0)"), std::string::npos);
  EXPECT_NE(sink.lines()[1].find(R"("metrics":)"), std::string::npos);
}

TEST(Snapshot, FiltersNondeterministicMetrics) {
  obs::MetricsRegistry registry;
  registry.gauge("mpsim.max_virtual_time_s").set(1.0);
  registry.gauge("report.wall_s").set(0.123);
  MemorySink sink;
  Snapshotter snap(&sink, &registry, {});
  snap.force(1.0);
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_NE(sink.lines()[1].find("max_virtual_time_s"), std::string::npos);
  EXPECT_EQ(sink.lines()[1].find("wall_s"), std::string::npos);
}

// -------------------------------------------------------------- Watchdogs

TEST(Watchdog, StragglerNeedsBothRatioAndFloor) {
  MemorySink sink;
  Log log(&sink, {.header = false});
  obs::MetricsRegistry registry;
  FlightRecorder rec;
  rec.prepare(1);
  Watchdogs dogs({}, &log, &registry, &rec);

  // Rank 2 waits 60% of the run; fleet median is ~2%.
  std::vector<RankSample> samples = {
      {0, 1.0, 0.02, 0}, {1, 1.0, 0.02, 0}, {2, 1.0, 0.6, 0}, {3, 1.0, 0.03, 0}};
  EXPECT_EQ(dogs.check_ranks(samples, 1.0), 1u);
  ASSERT_EQ(dogs.alerts().size(), 1u);
  EXPECT_EQ(dogs.alerts()[0].kind, fault::AlertKind::kStraggler);
  EXPECT_EQ(registry.to_json().dump().find("watchdog.deadline"), std::string::npos);
  EXPECT_EQ(rec.anomalies_noted(), 1u);
  EXPECT_NE(sink.lines()[0].find(R"("site":"watchdog.straggler")"), std::string::npos);

  // Uniformly tiny waits: big ratios but below the absolute floor.
  std::vector<RankSample> tiny = {{0, 1.0, 0.001, 0}, {1, 1.0, 0.01, 0}, {2, 1.0, 0.002, 0}};
  EXPECT_EQ(dogs.check_ranks(tiny, 2.0), 0u);
}

TEST(Watchdog, DeadlineMissesAggregateToOneAlert) {
  Watchdogs dogs({}, nullptr, nullptr, nullptr);  // all sinks optional
  std::vector<RankSample> samples = {{0, 1.0, 0.0, 2}, {1, 1.0, 0.0, 1}};
  EXPECT_EQ(dogs.check_ranks(samples, 1.0), 1u);
  ASSERT_EQ(dogs.alerts().size(), 1u);
  EXPECT_EQ(dogs.alerts()[0].kind, fault::AlertKind::kDeadlineMiss);
  EXPECT_NE(dogs.alerts()[0].message.find("3"), std::string::npos);
}

TEST(Watchdog, ArenaGrowthAfterSteadyState) {
  obs::MetricsRegistry registry;
  Watchdogs dogs({}, nullptr, &registry, nullptr);
  EXPECT_EQ(dogs.check_arena_growth("solve", 0, 2.0), 0u);
  EXPECT_EQ(dogs.check_arena_growth("solve", 3, 2.0), 1u);
  const std::string metrics = registry.to_json().dump();
  EXPECT_NE(metrics.find(R"("watchdog.alerts":1)"), std::string::npos);
  EXPECT_NE(metrics.find(R"("watchdog.arena-pressure":1)"), std::string::npos);
}

TEST(Watchdog, CostDriftAndTraceDrops) {
  Watchdogs dogs({}, nullptr, nullptr, nullptr);
  std::vector<obs::CostVerdict> verdicts(2);
  verdicts[0].phase = "driver.factor";
  verdicts[0].flagged = false;
  verdicts[1].phase = "driver.solve";
  verdicts[1].flagged = true;
  verdicts[1].ratio = 3.0;
  EXPECT_EQ(dogs.check_cost(verdicts, 1.0), 1u);
  EXPECT_EQ(dogs.check_trace_drops(0, 1.0), 0u);
  EXPECT_EQ(dogs.check_trace_drops(7, 1.0), 1u);
  EXPECT_EQ(dogs.alerts_raised(), 2u);
  EXPECT_EQ(dogs.alerts()[1].kind, fault::AlertKind::kTraceDrop);
}

// -------------------------------------------------------------- Postmortem

TEST(Postmortem, BundleCarriesAllSections) {
  FlightRecorder rec;
  rec.prepare(1);
  rec.driver().record_span("driver.factor", 1.0, 1.0);
  rec.note_anomaly("breakdown", 1.0, "pivot");
  obs::MetricsRegistry registry;
  registry.counter("mpsim.msgs_sent").add(std::uint64_t{4});
  registry.gauge("report.wall_s").set(0.5);  // must be filtered out
  obs::Json extra = obs::Json::object();
  extra.set("method", "ard");

  const obs::Json doc = build_postmortem({"breakdown", "driver.factor", "pivot blew up", 1.0},
                                         &rec, &registry, std::move(extra));
  const std::string s = doc.dump();
  EXPECT_NE(s.find(R"("schema":"ardbt.postmortem","version":1)"), std::string::npos);
  EXPECT_NE(s.find(R"("reason":"breakdown")"), std::string::npos);
  EXPECT_NE(s.find(R"("anomalies")"), std::string::npos);
  EXPECT_NE(s.find(R"("method":"ard")"), std::string::npos);
  EXPECT_NE(s.find("msgs_sent"), std::string::npos);
  EXPECT_EQ(s.find("wall_s"), std::string::npos);

  // Null contributors: sections omitted, never null.
  const obs::Json bare = build_postmortem({"error", "solve", "m", 0.0}, nullptr, nullptr);
  EXPECT_EQ(bare.dump().find("recorder"), std::string::npos);
  EXPECT_EQ(bare.dump().find("null"), std::string::npos);
}

// --------------------------------------------------- Session integration

mpsim::EngineOptions charged_engine() {
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  return engine;
}

TEST(SessionTelemetry, PostmortemFileWrittenOnPlantedBreakdown) {
  const la::index_t n = 32;
  const la::index_t m = 4;
  auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, n, m);
  btds::plant_singular_pivot(sys, 0, 1e-30);

  const std::string path = testing::TempDir() + "/ardbt_test_postmortem.json";
  std::remove(path.c_str());

  obs::MetricsRegistry registry;
  LiveTelemetry live({.postmortem_path = path}, &registry);
  // charged_engine()'s default on_breakdown policy is kFailFast.
  core::Session session(core::Method::kArd, sys, 4, {.engine = charged_engine()});
  session.set_telemetry(live.handle());
  EXPECT_THROW(session.factor(), fault::BreakdownError);

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "no postmortem bundle at " << path;
  char buf[512];
  const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[got] = '\0';
  // The bundle is pretty-printed; match values, not exact key spacing.
  const std::string head(buf);
  EXPECT_NE(head.find("ardbt.postmortem"), std::string::npos);
  EXPECT_NE(head.find("\"reason\""), std::string::npos);
  EXPECT_NE(head.find("breakdown"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SessionTelemetry, LadderOutcomesBecomeLogRecords) {
  const la::index_t n = 32;
  const la::index_t m = 4;
  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, n, m);
  const auto b = btds::make_rhs(n, m, 2);

  obs::MetricsRegistry registry;
  LiveTelemetry live({}, &registry);  // in-memory sink
  core::Session session(core::Method::kArd, sys, 4, {.engine = charged_engine()});
  session.set_telemetry(live.handle());
  session.factor();
  (void)session.solve(b);
  live.close();

  const auto* lines = live.memory_lines();
  ASSERT_NE(lines, nullptr);
  bool saw_factor = false;
  bool saw_solve = false;
  for (const std::string& line : *lines) {
    saw_factor = saw_factor || line.find(R"("site":"session.factor")") != std::string::npos;
    saw_solve = saw_solve || line.find(R"("site":"session.solve")") != std::string::npos;
  }
  EXPECT_TRUE(saw_factor);
  EXPECT_TRUE(saw_solve);
}

// The acceptance soak: a long chained-solve service workload with the
// full chain enabled holds telemetry memory bounded, and both solutions
// and modeled vtimes are bit-identical to an uninstrumented session and
// to one with the recorder attached but disabled.
TEST(SessionTelemetry, ChainedSoakStaysBoundedAndBitIdentical) {
  const la::index_t n = 32;
  const la::index_t m = 4;
  const int kSolves = 120;
  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, n, m);
  const auto b = btds::make_rhs(n, m, 2);

  // Plain session: the reference bits.
  core::Session plain(core::Method::kArd, sys, 4, {.engine = charged_engine()});
  plain.factor();
  std::vector<la::Matrix> ref;
  for (int i = 0; i < kSolves; ++i) ref.push_back(plain.solve(b));

  // Recorder attached but disabled: the zero-cost configuration.
  FlightRecorder off;
  off.set_enabled(false);
  core::Session disabled(core::Method::kArd, sys, 4, {.engine = charged_engine()});
  Telemetry off_handle;
  off_handle.recorder = &off;
  disabled.set_telemetry(off_handle);
  disabled.factor();

  // Full chain, tiny rings so the soak exercises wraparound constantly.
  obs::MetricsRegistry registry;
  LiveTelemetry::Options live_opts;
  live_opts.recorder = {.capacity = 32, .tail_keep = 8, .max_anomalies = 4};
  live_opts.snapshot.period_s = 1e-5;
  LiveTelemetry live(std::move(live_opts), &registry);
  core::Session instrumented(core::Method::kArd, sys, 4, {.engine = charged_engine()});
  instrumented.set_telemetry(live.handle());
  instrumented.factor();

  const std::size_t bound = live.recorder().max_resident_events();
  for (int i = 0; i < kSolves; ++i) {
    const la::Matrix x_off = disabled.solve(b);
    const la::Matrix x_on = instrumented.solve(b);
    for (la::index_t r = 0; r < x_on.rows(); ++r) {
      for (la::index_t c = 0; c < x_on.cols(); ++c) {
        ASSERT_EQ(x_on(r, c), ref[i](r, c)) << "instrumented bits diverged at solve " << i;
        ASSERT_EQ(x_off(r, c), ref[i](r, c)) << "disabled bits diverged at solve " << i;
      }
    }
    // Bounded memory: resident events never exceed the configured cap.
    ASSERT_LE(live.recorder().recent(bound + 1).size(), bound);
  }

  // Modeled times are bit-identical too: telemetry never touches vclock.
  ASSERT_EQ(instrumented.solve_vtimes().size(), plain.solve_vtimes().size());
  for (std::size_t i = 0; i < plain.solve_vtimes().size(); ++i) {
    EXPECT_EQ(instrumented.solve_vtimes()[i], plain.solve_vtimes()[i]);
    EXPECT_EQ(disabled.solve_vtimes()[i], plain.solve_vtimes()[i]);
  }

  // The recorder ran hot the whole soak (events recorded, rings wrapped)
  // yet the stream stayed bounded and snapshots kept flowing.
  EXPECT_GT(live.recorder().total_recorded(), static_cast<std::uint64_t>(kSolves));
  EXPECT_GT(live.snapshotter().snapshots_written(), 0u);
  EXPECT_EQ(disabled.telemetry().recorder->total_recorded(), 0u);
}

}  // namespace
