// Experiment T3: numerical accuracy. Relative residuals of every solver in
// the library, and of the two ablation-only forms of recursive doubling
// (bench/ablation/), across problem families and sizes — the table backing
// the formulation choice of DESIGN.md section 1.2 (two-port stays at
// machine precision; transfer-matrix RD degrades geometrically; shooting
// collapses first).

#include <cmath>
#include <cstdio>
#include <string>

#include "bench/ablation/shooting.hpp"
#include "bench/ablation/transfer_rd.hpp"
#include "bench/bench_common.hpp"
#include "src/btds/cyclic_reduction.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/solver.hpp"

namespace {

using namespace ardbt;

std::string guarded_residual(const btds::BlockTridiag& sys, const la::Matrix& b,
                             const std::function<la::Matrix()>& solver) {
  try {
    const double res = btds::relative_residual(sys, solver(), b);
    if (!std::isfinite(res)) return "overflow";
    return bench::fmt_sci(res);
  } catch (const std::exception&) {
    return "fail";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int p = 4;
  const la::index_t m = 4;
  const la::index_t r = 4;
  const bench::Args args(argc, argv);
  bench::JsonReport report(args, "bench_t3_accuracy");
  bench::LiveStream live(args);
  report.config("m", m).config("r", r).config("p", p);

  std::printf("# T3: relative residuals ||B - T X||_F / ||B||_F (M=%lld, R=%lld, P=%d)\n",
              static_cast<long long>(m), static_cast<long long>(r), p);
  for (btds::ProblemKind kind :
       {btds::ProblemKind::kDiagDominant, btds::ProblemKind::kPoisson2D,
        btds::ProblemKind::kToeplitz, btds::ProblemKind::kIllConditioned}) {
    std::printf("\n### %s\n", std::string(btds::to_string(kind)).c_str());
    bench::Table table({"N", "thomas", "cyclic_red", "ard(P=4)", "rd(P=4)", "transfer_rd",
                        "shooting"});
    for (la::index_t n : args.smoke() ? std::vector<la::index_t>{16, 64}
                                      : std::vector<la::index_t>{16, 64, 256, 1024}) {
      const auto sys = btds::make_problem(kind, n, m);
      const auto b = btds::make_rhs(n, m, r);
      table.add_row(
          {bench::fmt_int(static_cast<double>(n)),
           guarded_residual(sys, b, [&] { return btds::thomas_solve(sys, b); }),
           guarded_residual(sys, b, [&] { return btds::cyclic_reduction_solve(sys, b); }),
           guarded_residual(sys, b,
                            [&] {
                              return core::solve(core::Method::kArd, sys, b, p,
                                                 {.telemetry = live.handle()}).x;
                            }),
           guarded_residual(sys, b,
                            [&] {
                              return core::solve(core::Method::kRdBatched, sys, b, p,
                                                 {.telemetry = live.handle()}).x;
                            }),
           guarded_residual(sys, b, [&] { return ablation::transfer_rd_solve(sys, b, p); }),
           guarded_residual(sys, b, [&] { return ablation::shooting_solve(sys, b); })});
    }
    table.print();
    report.add_table(std::string(btds::to_string(kind)), table);
  }
  report.write();
  std::printf("\nExpected shapes: thomas / cyclic_red / ard / rd stay near machine epsilon\n"
              "at every N; transfer_rd loses ~1 digit per few rows (fail/garbage by\n"
              "N=256); shooting collapses fastest. The ill-conditioned family costs all\n"
              "solvers a few digits uniformly.\n");
  return 0;
}
