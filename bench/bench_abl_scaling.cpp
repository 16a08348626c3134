// Ablation B-abl-scaling: why the prefix operator and its normalization
// matter. Four tiers on the same problems (the first three are the
// ablation-only solvers of bench/ablation/):
//   1. shooting prefix                — collapses by N ~ 50;
//   2. transfer-matrix RD, unscaled   — overflows near N ~ 540 (3.7^N);
//   3. transfer-matrix RD, rescaled   — finite but degrades for block
//                                        systems with spectral spread;
//   4. two-port ARD                   — machine precision at every N.

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "bench/ablation/shooting.hpp"
#include "bench/ablation/transfer_rd.hpp"
#include "bench/bench_common.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/solver.hpp"

namespace {

using namespace ardbt;

std::string guarded(const btds::BlockTridiag& sys, const la::Matrix& b,
                    const std::function<la::Matrix()>& solver) {
  try {
    const double res = btds::relative_residual(sys, solver(), b);
    if (!std::isfinite(res)) return "overflow";
    if (res > 1.0) return "garbage";
    return bench::fmt_sci(res);
  } catch (const std::exception&) {
    return "fail";
  }
}

void sweep(la::index_t m, bool smoke, const char* label, bench::JsonReport& report,
           const obs::live::Telemetry& live) {
  std::printf("\n### %s (M = %lld)\n", label, static_cast<long long>(m));
  bench::Table table({"N", "shooting", "transfer_noscale", "transfer_rescaled", "ard_twoport"});
  for (la::index_t n : smoke ? std::vector<la::index_t>{16, 32, 64}
                             : std::vector<la::index_t>{16, 32, 64, 128, 256, 512, 1024}) {
    const auto sys = btds::make_problem(btds::ProblemKind::kPoisson2D, n, m);
    const auto b = btds::make_rhs(n, m, 2);
    table.add_row(
        {bench::fmt_int(static_cast<double>(n)),
         guarded(sys, b, [&] { return ablation::shooting_solve(sys, b); }),
         guarded(sys, b,
                 [&] { return ablation::transfer_rd_solve(sys, b, 2, {.rescale = false}); }),
         guarded(sys, b, [&] { return ablation::transfer_rd_solve(sys, b, 2); }),
         guarded(sys, b,
                 [&] { return core::solve(core::Method::kArd, sys, b, 2, {.telemetry = live}).x; })});
  }
  table.print();
  report.add_table("M=" + std::to_string(m), table);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  bench::JsonReport report(args, "bench_abl_scaling");
  bench::LiveStream live(args);
  std::printf("# B-abl-scaling: prefix-operator stability tiers (2-D Poisson family)\n");
  sweep(1, args.smoke(),
        "scalar blocks: a single growing mode, so rescaled transfer RD survives", report,
        live.handle());
  sweep(4, args.smoke(),
        "block size 4: spectral spread kills the transfer pair, two-port unaffected", report,
        live.handle());
  report.write();
  live.close();
  return 0;
}
