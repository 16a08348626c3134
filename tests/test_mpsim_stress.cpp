// Runtime stress tests: randomized communication schedules, large
// payloads, heavy oversubscription — the robustness net under every
// solver in the library.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <random>
#include <vector>

#include "src/mpsim/collectives.hpp"
#include "src/mpsim/engine.hpp"

namespace ardbt::mpsim {
namespace {

/// Every rank sends a seeded schedule of messages to seeded peers; every
/// receiver knows (from the same seeds) exactly what to expect. Exercises
/// out-of-order delivery, interleaved tags, and queue scanning.
TEST(MpsimStress, RandomizedAllPairsSchedule) {
  const int p = 6;
  const int rounds = 25;

  // Schedule[r][k]: (dst, tag, payload_seed) for sender r at step k.
  struct Slot {
    int dst;
    int tag;
    std::uint32_t seed;
  };
  std::vector<std::vector<Slot>> schedule(p);
  std::mt19937 rng(2026);
  for (int r = 0; r < p; ++r) {
    for (int k = 0; k < rounds; ++k) {
      schedule[r].push_back(Slot{static_cast<int>(rng() % p), static_cast<int>(rng() % 4),
                                 static_cast<std::uint32_t>(rng())});
    }
  }

  run(p, [&](Comm& comm) {
    // Send everything first (eager sends never block).
    for (const Slot& s : schedule[static_cast<std::size_t>(comm.rank())]) {
      const double payload[3] = {static_cast<double>(s.seed), static_cast<double>(comm.rank()),
                                 static_cast<double>(s.tag)};
      comm.send(s.dst, s.tag, std::span<const double>(payload, 3));
    }
    // Receive: for each (src, tag) stream, messages arrive in send order.
    for (int src = 0; src < p; ++src) {
      for (int tag = 0; tag < 4; ++tag) {
        for (const Slot& s : schedule[static_cast<std::size_t>(src)]) {
          if (s.dst != comm.rank() || s.tag != tag) continue;
          double got[3];
          comm.recv_into(src, tag, std::span<double>(got, 3));
          EXPECT_EQ(got[0], static_cast<double>(s.seed));
          EXPECT_EQ(got[1], static_cast<double>(src));
          EXPECT_EQ(got[2], static_cast<double>(tag));
        }
      }
    }
  });
}

TEST(MpsimStress, LargePayloadSurvives) {
  const std::size_t n = 1 << 20;  // 8 MB of doubles
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(n);
      for (std::size_t i = 0; i < n; ++i) big[i] = static_cast<double>(i % 1000);
      comm.send(1, 1, std::span<const double>(big));
    } else {
      std::vector<double> got(n);
      comm.recv_into(0, 1, std::span<double>(got));
      EXPECT_EQ(got[0], 0.0);
      EXPECT_EQ(got[999], 999.0);
      EXPECT_EQ(got[n - 1], static_cast<double>((n - 1) % 1000));
    }
  });
}

TEST(MpsimStress, HeavyOversubscriptionCollectives) {
  // 64 ranks on a 2-core host: collectives must still complete and agree.
  const int p = 64;
  const RunReport report = run(p, [&](Comm& comm) {
    std::vector<double> v{1.0};
    allreduce_sum(comm, v);
    EXPECT_EQ(v[0], static_cast<double>(p));
    barrier(comm);
    auto sum = [](double a, double b) { return a + b; };
    auto ser = [](double v) {
      std::vector<std::byte> bytes(sizeof(double));
      std::memcpy(bytes.data(), &v, sizeof(double));
      return bytes;
    };
    auto des = [](std::span<const std::byte> bytes) {
      double v = 0.0;
      std::memcpy(&v, bytes.data(), sizeof(double));
      return v;
    };
    const std::optional<double> prefix =
        exscan(comm, static_cast<double>(comm.rank()), sum, ser, des);
    EXPECT_EQ(prefix.value_or(0.0), comm.rank() * (comm.rank() - 1) / 2.0);
  });
  EXPECT_EQ(report.ranks.size(), static_cast<std::size_t>(p));
}

TEST(MpsimStress, ManySmallMessagesFifoPerStream) {
  run(3, [](Comm& comm) {
    const int next = (comm.rank() + 1) % 3;
    const int prev = (comm.rank() + 2) % 3;
    for (int i = 0; i < 500; ++i) comm.send_value(next, 7, i);
    for (int i = 0; i < 500; ++i) EXPECT_EQ(comm.recv_value<int>(prev, 7), i);
  });
}

TEST(MpsimStress, VirtualTimeMonotoneUnderLoad) {
  EngineOptions options;
  options.timing = TimingMode::ChargedFlops;
  options.cost.flop_rate = 1e9;
  run(8, [&](Comm& comm) {
    double last = comm.vtime();
    for (int i = 0; i < 50; ++i) {
      comm.charge_flops(1e6);
      barrier(comm);
      const double now = comm.vtime();
      EXPECT_GE(now, last);
      last = now;
    }
  }, options);
}

}  // namespace
}  // namespace ardbt::mpsim
