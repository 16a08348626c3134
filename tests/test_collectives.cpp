#include "src/mpsim/collectives.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt::mpsim {
namespace {

/// All collective tests sweep the rank count, including non-powers of two.
class Collectives : public ::testing::TestWithParam<int> {};

TEST_P(Collectives, BarrierCompletes) {
  const int p = GetParam();
  std::atomic<int> entered{0};
  test::run_ranks(p, [&](Comm& comm) {
    entered.fetch_add(1);
    barrier(comm);
    // After the barrier, every rank must have entered.
    EXPECT_EQ(entered.load(), comm.size());
  });
}

TEST_P(Collectives, BcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    test::run_ranks(p, [&](Comm& comm) {
      std::vector<double> data(4, comm.rank() == root ? 3.25 : -1.0);
      bcast(comm, data, root);
      for (double v : data) EXPECT_EQ(v, 3.25) << "root=" << root << " rank=" << comm.rank();
    });
  }
}

TEST_P(Collectives, AllreduceSumOnAllRanks) {
  const int p = GetParam();
  test::run_ranks(p, [&](Comm& comm) {
    std::vector<double> data{1.0, static_cast<double>(comm.rank())};
    allreduce_sum(comm, data);
    EXPECT_EQ(data[0], static_cast<double>(p));
    EXPECT_EQ(data[1], p * (p - 1) / 2.0);
  });
}

TEST_P(Collectives, ExscanNonCommutativeStringConcat) {
  const int p = GetParam();
  test::run_ranks(p, [&](Comm& comm) {
    using S = std::string;
    S mine(1, static_cast<char>('a' + comm.rank()));
    auto op = [](const S& left, const S& right) { return left + right; };
    auto ser = [](const S& s) {
      std::vector<std::byte> bytes(s.size());
      std::memcpy(bytes.data(), s.data(), s.size());
      return bytes;
    };
    auto des = [](std::span<const std::byte> bytes) {
      return S(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    };
    auto result = exscan(comm, std::move(mine), op, ser, des);
    if (comm.rank() == 0) {
      EXPECT_FALSE(result.has_value());
    } else {
      S expect;
      for (int r = 0; r < comm.rank(); ++r) expect += static_cast<char>('a' + r);
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(*result, expect) << "rank " << comm.rank();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, Collectives, ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13),
                         [](const auto& info) { return "P" + std::to_string(info.param); });

TEST(ExscanSchedule, RoundCountIsCeilLog2) {
  EXPECT_TRUE(exscan_schedule(0, 1).empty());
  EXPECT_EQ(exscan_schedule(0, 2).size(), 1u);
  EXPECT_EQ(exscan_schedule(0, 8).size(), 3u);
  // Non-power-of-two: some partners fall outside and are skipped.
  EXPECT_LE(exscan_schedule(4, 5).size(), 3u);
}

TEST(ExscanSchedule, PartnersAreSymmetric) {
  const int size = 13;
  // If rank a lists partner b at round k (counting per mask), b must list a.
  for (int mask = 1, round = 0; mask < size; mask <<= 1, ++round) {
    for (int a = 0; a < size; ++a) {
      const int b = a ^ mask;
      if (b >= size) continue;
      const auto sched_a = exscan_schedule(a, size);
      const auto sched_b = exscan_schedule(b, size);
      const bool a_has_b = std::any_of(sched_a.begin(), sched_a.end(),
                                       [&](const ScanStep& s) { return s.partner == b; });
      const bool b_has_a = std::any_of(sched_b.begin(), sched_b.end(),
                                       [&](const ScanStep& s) { return s.partner == a; });
      EXPECT_EQ(a_has_b, b_has_a);
      EXPECT_TRUE(a_has_b);
    }
  }
}

}  // namespace
}  // namespace ardbt::mpsim
