#include "src/core/flops.hpp"

#include <gtest/gtest.h>

namespace ardbt::core {
namespace {

TEST(Flops, Log2Rounds) {
  EXPECT_EQ(flops::log2_rounds(1), 0.0);
  EXPECT_EQ(flops::log2_rounds(2), 1.0);
  EXPECT_EQ(flops::log2_rounds(3), 2.0);
  EXPECT_EQ(flops::log2_rounds(8), 3.0);
  EXPECT_EQ(flops::log2_rounds(1024), 10.0);
}

TEST(Flops, RowsPerRank) {
  EXPECT_EQ(flops::rows_per_rank(100, 4), 25.0);
  EXPECT_EQ(flops::rows_per_rank(100, 3), 34.0);
}

TEST(Flops, FactorScalesCubicInM) {
  const double f8 = flops::ard_factor(1024, 8, 1);
  const double f16 = flops::ard_factor(1024, 16, 1);
  EXPECT_NEAR(f16 / f8, 8.0, 0.01);
}

TEST(Flops, SolveScalesLinearlyInR) {
  const double r16 = flops::ard_solve(1024, 8, 16, 4);
  const double r32 = flops::ard_solve(1024, 8, 32, 4);
  EXPECT_NEAR(r32 / r16, 2.0, 0.01);
}

TEST(Flops, SolveIsCheaperThanFactorByOrderM) {
  // ard_solve(R=1) / ard_factor ~ 12/(21 M): the per-RHS phase is ~M times
  // cheaper, which is what the O(R) speedup cashes in.
  const double ratio = flops::ard_solve(4096, 32, 1, 16) / flops::ard_factor(4096, 32, 16);
  EXPECT_LT(ratio, 0.1);
}

TEST(Flops, PredictedSpeedupGrowsThenSaturates) {
  const la::index_t n = 2048, m = 32;
  const int p = 16;
  double prev = 0.0;
  for (la::index_t r : {1, 2, 8, 32, 128, 512}) {
    const double s = flops::predicted_speedup(n, m, r, p);
    EXPECT_GT(s, prev);
    prev = s;
  }
  // Near-linear at small R...
  EXPECT_GT(flops::predicted_speedup(n, m, 8, p), 5.0);
  // ...but bounded by the factor/solve cost ratio at huge R.
  const double cap = flops::ard_factor(n, m, p) / flops::ard_solve(n, m, 1, p) + 1.0;
  EXPECT_LT(flops::predicted_speedup(n, m, 100000, p), cap + 1.0);
}

TEST(Flops, CommCountsGrowWithLogP) {
  EXPECT_EQ(flops::ard_factor_messages(1), 0.0);
  EXPECT_GT(flops::ard_factor_messages(16), flops::ard_factor_messages(4));
  EXPECT_GT(flops::ard_solve_bytes(8, 64, 16), flops::ard_solve_bytes(8, 64, 2));
  EXPECT_EQ(flops::ard_solve_bytes(8, 64, 1), 0.0);
}

// The predictor: obs::CostModel over the *_terms builders at a machine's
// oracle constants (the F2/F5 model columns).
obs::CostModel cluster2014_oracle() {
  return obs::CostModel(mpsim::CostModel::cluster2014().oracle_constants());
}

TEST(Predictor, StrongScalingShapeFallsThenFlattens) {
  const obs::CostModel model = cluster2014_oracle();
  const double t1 = model.predict(flops::rd_batched_terms(8192, 16, 256, 1));
  const double t16 = model.predict(flops::rd_batched_terms(8192, 16, 256, 16));
  const double t1024 = model.predict(flops::rd_batched_terms(8192, 16, 256, 1024));
  EXPECT_GT(t1 / t16, 8.0);       // near-linear early speedup
  EXPECT_LT(t16 / t1024, 64.0);   // sublinear by P = 1024 (log P floor)
  EXPECT_LT(t1024, t16);
}

TEST(Predictor, ArdBeatsPerRhsByRoughlyR) {
  const obs::CostModel model = cluster2014_oracle();
  const double per = model.predict(flops::rd_per_rhs_terms(2048, 32, 128, 64));
  const double ard = model.predict(flops::ard_factor_terms(2048, 32, 64)) +
                     model.predict(flops::ard_solve_terms(2048, 32, 128, 64));
  const double speedup = per / ard;
  EXPECT_GT(speedup, 20.0);
  EXPECT_LT(speedup, 128.0);
}

TEST(Predictor, RdMatchesThomasAtPEqualsOne) {
  // One rank computes no spikes and runs no scan or interface system, so
  // the model prices it as serial block Thomas.
  const obs::CostModel model = cluster2014_oracle();
  const double thomas =
      model.predict({.flops = btds::ThomasFactorization::factor_flops(2048, 16) +
                              btds::ThomasFactorization::solve_flops(2048, 16, 64)});
  EXPECT_EQ(thomas, model.predict(flops::rd_batched_terms(2048, 16, 64, 1)));
}

TEST(Predictor, CalibrationReturnsPlausibleRate) {
  const mpsim::CostModel calibrated = flops::calibrate_flop_rate(mpsim::CostModel{}, 16);
  EXPECT_GT(calibrated.flop_rate, 1e7);   // anything slower is broken
  EXPECT_LT(calibrated.flop_rate, 1e13);  // anything faster is a bug
}

}  // namespace
}  // namespace ardbt::core
