// Ablation B-abl-pipeline: virtual-clock effect of RHS-panel pipelining
// in the ARD solve (docs/PARALLELISM.md) — R columns chunked into panels
// so panel k+1's rank-local reduction runs while panel k's vector scan
// replay is in flight — against the one-panel schedule on the same
// comm-bound cost model. Both sides round-interleave their scans; only
// the panel count differs.
//
// Timings are modeled seconds on the deterministic ChargedFlops clock
// under a FIXED bandwidth-bound cost model (never host-calibrated: the
// committed baseline must reproduce bit-exactly on any machine). Chunking
// is only a schedule change, so the solutions must be bit-identical — the
// table reports max|diff| and the run aborts if it is ever nonzero.
// wait_frac is the blocked share of the attribution critical path (wait +
// in-flight comm over makespan); pipelining must shrink it.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/ard.hpp"
#include "src/core/solver.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/trace.hpp"

namespace {

double max_abs_diff(const ardbt::la::Matrix& a, const ardbt::la::Matrix& b) {
  double d = 0.0;
  for (ardbt::la::index_t i = 0; i < a.rows(); ++i) {
    for (ardbt::la::index_t j = 0; j < a.cols(); ++j) {
      d = std::max(d, std::abs(a(i, j) - b(i, j)));
    }
  }
  return d;
}

struct Measured {
  double factor_s = 0.0;
  double solve_s = 0.0;
  double wait_frac = 0.0;
  ardbt::la::Matrix x;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ardbt;
  const bench::Args args(argc, argv);
  bench::JsonReport report(args, "bench_pipeline");

  // Comm-bound on purpose: slow wire (30 us/kB), modest latency, fast
  // cores. On a latency-bound model chunking LOSES — each extra panel
  // pays log2(P) unhidden alphas — so this is also the honest regime for
  // the ablation: the win must come from hiding the beta*bytes term.
  const mpsim::CostModel cost{
      .alpha = 2e-6, .beta = 3e-8, .flop_rate = 4e9, .name = "pipe_commbound"};
  const int p = 8;  // virtual clock: deterministic, one rep is exact
  report.config("p", static_cast<std::int64_t>(p))
      .config("alpha", cost.alpha)
      .config("beta", cost.beta)
      .config("flop_rate", cost.flop_rate)
      .config("mode", args.smoke() ? "smoke" : "full");

  std::printf("# B-abl-pipeline: ARD solve(B), one RHS panel vs pipelined panels\n");
  std::printf("# virtual clock (ChargedFlops), model %s: alpha=%.0e beta=%.0e flops=%.0e, "
              "P=%d\n", cost.name.c_str(), cost.alpha, cost.beta, cost.flop_rate, p);
  // First column is the row key for perf_gate.py, so it must be unique.
  bench::Table table({"NxMxR", "chunk", "factor[s]", "solve_1panel[s]", "solve_chunked[s]",
                      "solve_x", "wait_1panel", "wait_chunked", "max|diff|"});

  struct Shape {
    la::index_t n, m, r, chunk;
  };
  const std::vector<Shape> shapes = args.smoke()
      ? std::vector<Shape>{{64, 8, 16, 4}}
      : std::vector<Shape>{{64, 8, 32, 8}, {128, 8, 64, 8}, {64, 16, 32, 8}, {128, 16, 64, 16}};

  bool all_identical = true;
  double worst_solve_x = 1e300;
  bool wait_shrinks = true;
  for (const Shape& s : shapes) {
    const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, s.n, s.m);
    const la::Matrix b = btds::make_rhs(s.n, s.m, s.r, static_cast<std::uint64_t>(s.m));

    Measured run[2];  // [one panel, chunked]
    for (int chunked = 0; chunked < 2; ++chunked) {
      mpsim::EngineOptions engine;
      engine.timing = mpsim::TimingMode::ChargedFlops;
      engine.cost = cost;
      obs::Tracer tracer;
      engine.tracer = &tracer;
      core::ArdOptions opts;
      opts.chunk_cols = chunked == 1 ? s.chunk : 0;
      auto res = core::solve(core::Method::kArd, sys, b, p, {.ard = opts, .engine = engine});
      const obs::Attribution a = obs::analyze(tracer);
      const obs::CriticalPath& cp = a.critical_path;
      run[chunked] = {res.factor_vtime, res.solve_vtime,
                 cp.length_s > 0.0 ? (cp.wait_s + cp.comm_s) / cp.length_s : 0.0,
                 std::move(res.x)};
    }

    const double diff = max_abs_diff(run[0].x, run[1].x);
    all_identical = all_identical && diff == 0.0;
    const double solve_x = run[0].solve_s / run[1].solve_s;
    worst_solve_x = std::min(worst_solve_x, solve_x);
    wait_shrinks = wait_shrinks && run[1].wait_frac < run[0].wait_frac;
    const std::string shape = std::to_string(s.n) + "x" + std::to_string(s.m) + "x" +
                              std::to_string(s.r);
    table.add_row({shape, bench::fmt_int(static_cast<double>(s.chunk)),
                   bench::fmt_sci(run[0].factor_s), bench::fmt_sci(run[0].solve_s),
                   bench::fmt_sci(run[1].solve_s),
                   bench::fmt(solve_x), bench::fmt(run[0].wait_frac),
                   bench::fmt(run[1].wait_frac), bench::fmt_sci(diff)});
  }
  table.print();
  report.add_table("main", table);
  report.set_section("identical", obs::Json(all_identical));
  report.set_section("wait_frac_shrinks", obs::Json(wait_shrinks));
  report.write();

  if (!all_identical) {
    std::fprintf(stderr, "bench_pipeline: FAIL: chunking changed the solution bits\n");
    return 1;
  }
  std::printf("\nExpected shapes: solve_x >= 1.2 on every row (worst here: %.2f),\n"
              "wait_chunked < wait_1panel everywhere, max|diff| exactly 0\n"
              "(docs/PARALLELISM.md).\n",
              worst_solve_x);
  return 0;
}
