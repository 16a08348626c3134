#include "src/mpsim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/par/pool.hpp"

namespace ardbt::mpsim {
namespace {

TEST(Engine, RunsAllRanks) {
  std::atomic<int> count{0};
  const RunReport report = run(5, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 5);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 5);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 5);
  EXPECT_EQ(report.ranks.size(), 5u);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(Engine, RejectsNonPositiveRankCount) {
  EXPECT_THROW(run(0, [](Comm&) {}), fault::InvalidArgumentError);
  EXPECT_THROW(run(2, [](Comm&) {}, EngineOptions{.threads_per_rank = 0}),
               fault::InvalidArgumentError);
}

TEST(Engine, PointToPointDeliversPayload) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double data[] = {1.5, 2.5, 3.5};
      comm.send(1, /*tag=*/7, std::span<const double>(data, 3));
    } else {
      std::vector<double> buf(3);
      comm.recv_into(0, 7, std::span<double>(buf));
      EXPECT_EQ(buf[0], 1.5);
      EXPECT_EQ(buf[2], 3.5);
    }
  });
}

TEST(Engine, TypedValueRoundTrip) {
  run(2, [](Comm& comm) {
    struct Payload {
      int a;
      double b;
    };
    if (comm.rank() == 0) {
      comm.send_value(1, 1, Payload{42, 2.5});
    } else {
      const auto p = comm.recv_value<Payload>(0, 1);
      EXPECT_EQ(p.a, 42);
      EXPECT_EQ(p.b, 2.5);
    }
  });
}

TEST(Engine, ReceivedPayloadStaysValidUntilTheRunEnds) {
  // recv_bytes hands out a view of a payload the mailbox keeps; later
  // receives must not move or free it. With a plan installed the view
  // skips the wire header, and the dropped duplicate of send 0 is kept
  // too.
  fault::FaultPlan plan;
  plan.duplicate_message(0, 0);
  for (fault::FaultPlan* p : {static_cast<fault::FaultPlan*>(nullptr), &plan}) {
    run(2, [](Comm& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < 40; ++i) comm.send_value(1, 3, static_cast<double>(i));
      } else {
        std::vector<std::span<const std::byte>> views;
        for (int i = 0; i < 40; ++i) views.push_back(comm.recv_bytes(0, 3));
        for (int i = 0; i < 40; ++i) {
          double v = -1.0;
          ASSERT_EQ(views[static_cast<std::size_t>(i)].size(), sizeof v);
          std::memcpy(&v, views[static_cast<std::size_t>(i)].data(), sizeof v);
          EXPECT_EQ(v, static_cast<double>(i));
        }
      }
    }, EngineOptions{.fault_plan = p});
  }
}

TEST(Engine, FifoOrderPerSourceAndTag) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(comm.recv_value<int>(0, 3), i);
    }
  });
}

TEST(Engine, TagsMatchIndependently) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, /*tag=*/1, 100);
      comm.send_value(1, /*tag=*/2, 200);
    } else {
      // Receive in the opposite order of sending: tag matching must pick
      // the right message regardless of queue position.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(Engine, SelfSendWorks) {
  run(1, [](Comm& comm) {
    comm.send_value(0, 5, 3.25);
    EXPECT_EQ(comm.recv_value<double>(0, 5), 3.25);
  });
}

TEST(Engine, ExceptionPropagatesAndUnblocksPeers) {
  EXPECT_THROW(run(3,
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       throw std::runtime_error("rank 0 boom");
                     }
                     // Ranks 1, 2 block forever waiting for a message that
                     // never comes; the abort must wake them.
                     (void)comm.recv_bytes((comm.rank() + 1) % 3, 9);
                   }),
               std::runtime_error);
}

TEST(Engine, StatsCountMessagesAndBytes) {
  const RunReport report = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double data[16] = {};
      comm.send(1, 1, std::span<const double>(data, 16));
    } else {
      std::vector<double> buf(16);
      comm.recv_into(0, 1, std::span<double>(buf));
    }
  });
  EXPECT_EQ(report.ranks[0].msgs_sent, 1u);
  EXPECT_EQ(report.ranks[0].bytes_sent, 16u * 8u);
  EXPECT_EQ(report.ranks[1].msgs_received, 1u);
  EXPECT_EQ(report.ranks[1].bytes_received, 16u * 8u);
}

TEST(Engine, ChargedFlopsModeIsDeterministic) {
  EngineOptions options;
  options.timing = TimingMode::ChargedFlops;
  options.cost.flop_rate = 1e9;
  options.cost.alpha = 1e-6;
  options.cost.beta = 1e-9;

  auto body = [](Comm& comm) {
    comm.charge_flops(2e9);  // 2 virtual seconds of compute
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 1);
    } else {
      (void)comm.recv_value<int>(0, 1);
    }
  };
  const RunReport r1 = run(2, body, options);
  const RunReport r2 = run(2, body, options);
  EXPECT_DOUBLE_EQ(r1.ranks[0].virtual_time, r2.ranks[0].virtual_time);
  EXPECT_DOUBLE_EQ(r1.ranks[1].virtual_time, r2.ranks[1].virtual_time);
  // Rank 0: 2 s compute + alpha send overhead.
  EXPECT_NEAR(r1.ranks[0].virtual_time, 2.0 + 1e-6, 1e-12);
  // Rank 1: its own 2 s dominate the message availability (2 s + alpha +
  // 4 bytes * beta), so no wait is added beyond its own clock.
  EXPECT_NEAR(r1.ranks[1].virtual_time, 2.0 + 1e-6 + 4e-9, 1e-9);
}

TEST(Engine, VirtualWaitChargedWhenReceiverIsEarly) {
  EngineOptions options;
  options.timing = TimingMode::ChargedFlops;
  options.cost.flop_rate = 1e9;
  options.cost.alpha = 0.5;  // exaggerated latency
  options.cost.beta = 0.0;

  const RunReport report = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.charge_flops(1e9);  // sender works 1 virtual second first
      comm.send_value(1, 1, 1);
    } else {
      (void)comm.recv_value<int>(0, 1);  // receiver posts at t = 0
    }
  }, options);
  // Message available at 1.0 + 0.5; receiver waited that long.
  EXPECT_NEAR(report.ranks[1].virtual_time, 1.5, 1e-9);
  EXPECT_NEAR(report.ranks[1].virtual_wait, 1.5, 1e-9);
}

TEST(Engine, MeasuredCpuModeAccumulatesCpuSeconds) {
  const RunReport report = run(1, [](Comm& comm) {
    // Busy-loop in chunks until the thread CPU clock registers progress;
    // some kernels tick it as coarsely as 10 ms.
    volatile double sink = 0.0;
    for (int chunk = 0; chunk < 100 && comm.vtime() == 0.0; ++chunk) {
      for (int i = 0; i < 4000000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
    }
    EXPECT_GT(comm.vtime(), 0.0);
  });
  EXPECT_GT(report.ranks[0].cpu_seconds, 0.0);
  EXPECT_NEAR(report.ranks[0].virtual_time, report.ranks[0].cpu_seconds, 1e-6);
}

TEST(Engine, TotalsAggregate) {
  const RunReport report = run(3, [](Comm& comm) {
    comm.charge_flops(100.0);
    if (comm.rank() > 0) comm.send_value(0, 1, comm.rank());
    if (comm.rank() == 0) {
      (void)comm.recv_value<int>(1, 1);
      (void)comm.recv_value<int>(2, 1);
    }
  });
  const RankStats totals = report.totals();
  EXPECT_EQ(totals.msgs_sent, 2u);
  EXPECT_EQ(totals.msgs_received, 2u);
  EXPECT_DOUBLE_EQ(totals.flops_charged, 300.0);
  EXPECT_EQ(report.max_virtual_time(),
            std::max({report.ranks[0].virtual_time, report.ranks[1].virtual_time,
                      report.ranks[2].virtual_time}));
}

// ---- persistent rank teams ------------------------------------------------

/// Threads of this process, from the `Threads:` line of /proc/self/status.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// process_threads() once it reaches `expected`, or after ~2 s. A joined
/// thread can stay counted for a moment while the kernel reaps it.
int process_threads_settled(int expected) {
  int n = process_threads();
  for (int i = 0; i < 200 && n != expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    n = process_threads();
  }
  return n;
}

/// process_threads() once it has stopped falling: the same count for five
/// polls 10 ms apart (or after ~2 s). Threads a previous test joined may
/// still be counted until the kernel reaps them.
int process_threads_after_reaping() {
  int n = process_threads();
  for (int i = 0, steady = 0; i < 200 && steady < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const int next = process_threads();
    steady = next < n ? 0 : steady + 1;
    n = std::min(n, next);
  }
  return n;
}

/// Ring exchange plus a flop charge: exercises every counter of a report.
void ring_body(Comm& comm) {
  const int p = comm.size();
  comm.charge_flops(1e6 * (comm.rank() + 1));
  comm.send_value((comm.rank() + 1) % p, 4, comm.rank());
  EXPECT_EQ(comm.recv_value<int>((comm.rank() + p - 1) % p, 4), (comm.rank() + p - 1) % p);
}

EngineOptions charged_options() {
  EngineOptions options;
  options.timing = TimingMode::ChargedFlops;
  options.cost.flop_rate = 1e9;
  options.cost.alpha = 1e-6;
  options.cost.beta = 1e-9;
  return options;
}

TEST(EngineTeam, RanksRunOnTheSameThreadsRunAfterRun) {
  // A thread id may be recycled after a join, so also count visits in
  // thread-local storage, which a fresh thread would not carry over.
  struct Visit {
    std::thread::id id;
    int visits = 0;
  };
  const auto record = [](std::vector<Visit>& out) {
    return [&out](Comm& comm) {
      thread_local int visits = 0;
      out[static_cast<std::size_t>(comm.rank())] = {std::this_thread::get_id(), ++visits};
    };
  };
  std::vector<Visit> first(3), second(3);
  run(3, record(first));
  run(3, record(second));
  EXPECT_EQ(first[1].id, second[1].id) << "rank 1 must reuse its parked thread";
  EXPECT_EQ(second[1].visits, first[1].visits + 1);
  EXPECT_EQ(first[2].id, second[2].id);
  EXPECT_EQ(second[2].visits, first[2].visits + 1);
  // The caller is rank 0, so a P=1 run spawns nothing.
  EXPECT_EQ(first[0].id, std::this_thread::get_id());
  std::thread::id solo;
  run(1, [&](Comm&) { solo = std::this_thread::get_id(); });
  EXPECT_EQ(solo, std::this_thread::get_id());
}

TEST(EngineTeam, CleanRunAfterAFailedRunMatchesAFreshCaller) {
  const EngineOptions options = charged_options();
  for (const int tpr : {1, 3}) {
    EngineOptions o = options;
    o.threads_per_rank = tpr;
    EXPECT_THROW(run(4,
                     [](Comm& comm) {
                       comm.charge_flops(5e5);
                       if (comm.rank() == 2) throw std::runtime_error("rank 2 boom");
                       // Everyone else blocks on its left neighbour: rank 3
                       // dies of rank 2, rank 0 of rank 3, rank 1 of rank 0.
                       (void)comm.recv_bytes((comm.rank() + 3) % 4, 9);
                     },
                     o),
                 std::runtime_error);
    const RunReport reused = run(4, ring_body, o);
    RunReport fresh;
    std::thread caller([&] { fresh = run(4, ring_body, o); });
    caller.join();
    ASSERT_EQ(reused.ranks.size(), fresh.ranks.size());
    for (std::size_t r = 0; r < fresh.ranks.size(); ++r) {
      EXPECT_EQ(reused.ranks[r].msgs_sent, fresh.ranks[r].msgs_sent);
      EXPECT_EQ(reused.ranks[r].bytes_sent, fresh.ranks[r].bytes_sent);
      EXPECT_EQ(reused.ranks[r].msgs_received, fresh.ranks[r].msgs_received);
      EXPECT_EQ(reused.ranks[r].bytes_received, fresh.ranks[r].bytes_received);
      EXPECT_EQ(reused.ranks[r].flops_charged, fresh.ranks[r].flops_charged);
      EXPECT_EQ(reused.ranks[r].virtual_time, fresh.ranks[r].virtual_time);
      EXPECT_EQ(reused.ranks[r].virtual_wait, fresh.ranks[r].virtual_wait);
    }
  }
}

TEST(EngineTeam, ConcurrentCallersEachKeepTheirOwnTeam) {
  const int before = process_threads_after_reaping();
  const EngineOptions options = charged_options();
  std::vector<RunReport> last(2);
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < 200; ++i) last[static_cast<std::size_t>(c)] = run(3, ring_body, options);
    });
  }
  for (auto& t : callers) t.join();
  for (const RunReport& report : last) {
    EXPECT_EQ(report.totals().msgs_sent, 3u);
    EXPECT_EQ(report.max_virtual_time(), last[0].max_virtual_time());
  }
  // Each caller's team was joined when the caller exited.
  EXPECT_EQ(process_threads_settled(before), before);
}

TEST(EngineTeam, ParkedThreadsStayWithinTheCacheBound) {
  // Largest team of the sweep: 8 extra rank lanes plus 9 pools x 2 workers.
  constexpr int kLargestTeam = 8 + 9 * 2;
  const int bound = 1 + kMaxCachedTeams * kLargestTeam;
  int peak = 0;
  for (int p = 1; p <= 9; ++p) {
    for (const int tpr : {1, 3}) {
      EngineOptions options;
      options.threads_per_rank = tpr;
      run(p, [](Comm&) {}, options);
      peak = std::max(peak, process_threads());
    }
  }
  EXPECT_LE(peak, bound);
  // The last team (P=9, three lanes per rank) is parked, not joined.
  EXPECT_GE(process_threads(), 1 + kLargestTeam);
}

TEST(EngineTeam, RunNestedInARankBodyGetsAnotherTeam) {
  // Rank 0 runs on the caller, so its nested run of the same shape finds
  // the caller's team busy and must not be handed it.
  std::atomic<int> inner{0};
  run(2, [&](Comm&) { run(2, [&](Comm& c) { inner.fetch_add(c.rank() + 1); }); });
  EXPECT_EQ(inner.load(), 2 * 3);
}

TEST(EngineTeam, UntracedRunLeavesNoStalePoolTraceHook) {
  obs::Tracer tracer;
  EngineOptions options;
  options.threads_per_rank = 3;
  options.tracer = &tracer;
  const auto body = [](Comm& comm) {
    comm.pool()->parallel_for(0, 30, [](std::int64_t, std::int64_t) {}, "test.chunk");
  };
  run(2, body, options);
  const auto recorded = [&] {
    std::uint64_t n = 0;
    for (int r = 0; r < 2; ++r) {
      for (int w = 0; w < 3; ++w) n += tracer.worker(r, w).total_recorded();
    }
    return n;
  };
  const std::uint64_t traced = recorded();
  EXPECT_GT(traced, 0u);
  options.tracer = nullptr;
  run(2, body, options);
  EXPECT_EQ(recorded(), traced) << "an untraced run must not reach the old tracer's lanes";
}

TEST(CostModel, MessageTimeAndProfiles) {
  CostModel m;
  m.alpha = 1e-6;
  m.beta = 1e-9;
  EXPECT_DOUBLE_EQ(m.message_time(1000), 1e-6 + 1e-6);
  EXPECT_GT(CostModel::cluster2014().flop_rate, 0.0);
  // The oracle's constants are this machine, the flop rate inverted.
  const obs::CostModel::Constants c = m.oracle_constants();
  EXPECT_EQ(c.seconds_per_flop, 1.0 / m.flop_rate);
  EXPECT_EQ(c.alpha, m.alpha);
  EXPECT_EQ(c.beta, m.beta);
}

}  // namespace
}  // namespace ardbt::mpsim
