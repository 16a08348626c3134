#include "stats.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Quartiles, MatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.spread(), (8.25 - 2.75) / 5.5);
  // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
  const Quartiles small = quartiles({4, 1, 2});
  EXPECT_DOUBLE_EQ(small.q1, 1.0);
  EXPECT_DOUBLE_EQ(small.q2, 2.0);
  EXPECT_DOUBLE_EQ(small.q3, 4.0);
  // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
  const Quartiles two = quartiles({3, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.5);
  EXPECT_DOUBLE_EQ(two.q2, 2.0);
  EXPECT_DOUBLE_EQ(two.q3, 3.5);
  const Quartiles one = quartiles({5});
  EXPECT_DOUBLE_EQ(one.q1, 5.0);
  EXPECT_DOUBLE_EQ(one.q3, 5.0);
}

TEST(Tail, KeepsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted on purpose
  const Tail t = nearest_rank_tail(v);
  ASSERT_TRUE(t.valid);
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.count, 100u);

  std::vector<double> w(11);
  for (int i = 0; i < 11; ++i) w[static_cast<std::size_t>(i)] = i;
  const Tail first = nearest_rank_tail(w);
  ASSERT_TRUE(first.valid);
  EXPECT_DOUBLE_EQ(first.value, 0.0);
  EXPECT_NEAR(first.percentile, 100.0 / 11.0, 1e-12);
}

TEST(Tail, TooFewSamplesIsInvalid) {
  EXPECT_FALSE(nearest_rank_tail(std::vector<double>(10, 1.0)).valid);
  EXPECT_FALSE(nearest_rank_tail({}).valid);
}

TEST(FailFrac, RatioAndNothingAttempted) {
  EXPECT_DOUBLE_EQ(fail_frac(0, 50), 0.0);
  EXPECT_DOUBLE_EQ(fail_frac(5, 50), 0.1);
  EXPECT_DOUBLE_EQ(fail_frac(0, 0), 1.0);
}

}  // namespace
}  // namespace perfbench
