// Experiment F5: crossover against the sequential baselines. At P = 1 the
// prefix solvers pay a constant-factor overhead over block Thomas (and
// sequential cyclic reduction); recursive doubling wins once P covers that
// overhead. This bench locates the crossover and shows ARD crossing
// earlier than single-shot RD for multi-RHS workloads.

#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/btds/cyclic_reduction.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/flops.hpp"
#include "src/core/solver.hpp"

int main(int argc, char** argv) {
  using namespace ardbt;
  const auto engine = bench::virtual_engine();
  const bench::Args args(argc, argv);
  const la::index_t n = args.smoke() ? 64 : 2048;
  const la::index_t m = 8;
  const la::index_t r = args.smoke() ? 4 : 32;
  const int p_max = args.smoke() ? 4 : 256;
  bench::JsonReport report(args, "bench_f5_crossover");
  bench::LiveStream live(args);
  report.config("n", n).config("m", m).config("r", r).config("cost_model", engine.cost.name);
  const obs::CostModel model(engine.cost.oracle_constants());

  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, n, m);
  const auto b = btds::make_rhs(n, m, r);

  // Sequential baselines, predicted at the same calibrated flop rate so
  // the comparison is machine-consistent (their virtual P is always 1, so
  // they send nothing).
  const double t_thomas =
      model.predict({.flops = btds::ThomasFactorization::factor_flops(n, m) +
                              btds::ThomasFactorization::solve_flops(n, m, r)});
  const double t_bcr = model.predict({.flops = btds::cyclic_reduction_flops(n, m, r)});

  std::printf("# F5: crossover vs sequential baselines, N=%lld M=%lld R=%lld\n",
              static_cast<long long>(n), static_cast<long long>(m), static_cast<long long>(r));
  std::printf("block Thomas (P=1): %.4gs   cyclic reduction (P=1): %.4gs\n\n", t_thomas, t_bcr);

  bench::Table table({"P", "t_ard[s]", "t_rd[s]", "ard/thomas", "rd/thomas"});
  int ard_crossover = -1;
  int rd_crossover = -1;
  for (int p = 1; p <= p_max; p *= 2) {
    const auto ard = core::solve(core::Method::kArd, sys, b, p, {.engine = engine, .telemetry = live.handle()});
    const auto rd = core::solve(core::Method::kRdBatched, sys, b, p, {.engine = engine, .telemetry = live.handle()});
    const double t_ard = ard.factor_vtime + ard.solve_vtime;
    const double t_rd = rd.solve_vtime;
    if (ard_crossover < 0 && t_ard < t_thomas) ard_crossover = p;
    if (rd_crossover < 0 && t_rd < t_thomas) rd_crossover = p;
    table.add_row({bench::fmt_int(p), bench::fmt_sci(t_ard), bench::fmt_sci(t_rd),
                   bench::fmt(t_ard / t_thomas), bench::fmt(t_rd / t_thomas)});
  }
  table.print();
  report.add_table("main", table);
  obs::Json crossover = obs::Json::object();
  crossover.set("thomas_seconds", t_thomas);
  crossover.set("cyclic_reduction_seconds", t_bcr);
  crossover.set("ard_crossover_p", ard_crossover);
  crossover.set("rd_crossover_p", rd_crossover);
  report.set_section("crossover", std::move(crossover));
  report.write();
  std::printf("\nCrossover (first P beating sequential Thomas): ARD at P=%d, RD at P=%d.\n"
              "Expected shapes: both overhead ratios start > 1 at P=1 and fall below 1\n"
              "within a few ranks; ARD crosses at the same or earlier P than RD.\n",
              ard_crossover, rd_crossover);
  return 0;
}
