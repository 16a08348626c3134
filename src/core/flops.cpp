#include "src/core/flops.hpp"

#include <chrono>

#include "src/la/random.hpp"

namespace ardbt::core::flops {

mpsim::CostModel calibrate_flop_rate(mpsim::CostModel base, index_t block_size) {
  const index_t m = 2 * block_size;  // transfer matrices are 2M x 2M
  la::Rng rng = la::make_rng(1234);
  const la::Matrix a = la::random_uniform(m, m, rng);
  const la::Matrix b = la::random_uniform(m, m, rng);
  la::Matrix c(m, m);

  // Warm up, then time enough repetitions for a stable estimate.
  la::gemm(1.0, a.view(), b.view(), 0.0, c.view());
  const int reps = 20;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) la::gemm(1.0, a.view(), b.view(), 1.0, c.view());
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  const double flops = reps * la::gemm_flops(m, m, m);

  base.flop_rate = flops / seconds;
  base.name += "+calibrated";
  return base;
}

}  // namespace ardbt::core::flops
