// Experiment F2: strong scaling. Virtual-time runtime of RD (batched) and
// ARD (factor + solve) versus rank count P at fixed N, M, R, alongside the
// closed-form performance model. Expected shape: both fall like 1/P, then
// flatten on the log P communication floor; ARD stays below RD-per-RHS by
// the F1 factor with an identical curve shape.

#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/btds/generators.hpp"
#include "src/core/flops.hpp"
#include "src/core/solver.hpp"

int main(int argc, char** argv) {
  using namespace ardbt;
  const auto engine = bench::virtual_engine();
  const bench::Args args(argc, argv);
  const la::index_t n = args.smoke() ? 64 : 4096;
  const la::index_t m = 16;
  const la::index_t r = args.smoke() ? 8 : 128;
  const int p_max = args.smoke() ? 4 : 1024;
  bench::JsonReport report(args, "bench_f2_strong_scaling");
  bench::LiveStream live(args);
  report.config("n", n).config("m", m).config("r", r).config("cost_model", engine.cost.name);
  const obs::CostModel model(engine.cost.oracle_constants());
  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, n, m);
  const auto b = btds::make_rhs(n, m, r);

  std::printf("# F2: strong scaling, N=%lld M=%lld R=%lld (%s, flop rate %.3g/s)\n",
              static_cast<long long>(n), static_cast<long long>(m), static_cast<long long>(r),
              engine.cost.name.c_str(), engine.cost.flop_rate);
  bench::Table table({"P", "t_factor[s]", "t_solve[s]", "t_ard[s]", "model_ard[s]",
                      "model_rd_per_rhs[s]", "speedup_vs_P1", "ideal"});

  double t1 = 0.0;
  for (int p = 1; p <= p_max; p *= 2) {
    const auto res = core::solve(core::Method::kArd, sys, b, p, {.engine = engine, .telemetry = live.handle()});
    const double t_ard = res.factor_vtime + res.solve_vtime;
    if (p == 1) t1 = t_ard;
    const double model_ard = model.predict(core::flops::ard_factor_terms(n, m, p)) +
                             model.predict(core::flops::ard_solve_terms(n, m, r, p));
    const double model_rd_per_rhs = model.predict(core::flops::rd_per_rhs_terms(n, m, r, p));
    table.add_row({bench::fmt_int(p), bench::fmt_sci(res.factor_vtime),
                   bench::fmt_sci(res.solve_vtime), bench::fmt_sci(t_ard),
                   bench::fmt_sci(model_ard), bench::fmt_sci(model_rd_per_rhs),
                   bench::fmt(t1 / t_ard), bench::fmt_int(p)});
  }
  table.print();
  report.add_table("main", table);
  report.write();
  std::printf("\nExpected shapes: speedup_vs_P1 tracks `ideal` for small P and flattens\n"
              "when the log P merge term dominates; engine and model columns agree on\n"
              "shape (same flop counts, same alpha-beta charges).\n");
  return 0;
}
