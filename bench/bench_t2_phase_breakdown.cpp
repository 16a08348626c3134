// Experiment T2: phase breakdown and amortization. Factor cost vs
// per-batch solve cost across rank counts, and the amortized per-RHS cost
// as more batches reuse one factorization — the time-stepping scenario
// that motivates ARD.
//
// Phase times are the Session's own (factor_vtime, solve_vtimes): each
// phase's largest final rank clock minus its run's origin. The tracer's
// attribution layer (obs::analyze) supplies the critical-path / wait
// columns that show where the session's makespan actually went — the
// same numbers the CLI exports in run_report v2.

#include <cstdio>
#include <numeric>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/btds/generators.hpp"
#include "src/core/solver.hpp"
#include "src/obs/attribution.hpp"

int main(int argc, char** argv) {
  using namespace ardbt;
  const auto engine = bench::virtual_engine();
  const bench::Args args(argc, argv);
  const la::index_t n = args.smoke() ? 64 : 2048;
  const la::index_t m = args.smoke() ? 8 : 32;
  const la::index_t r = args.smoke() ? 8 : 128;  // per batch
  const int num_batches = 4;
  bench::JsonReport report(args, "bench_t2_phase_breakdown");
  bench::LiveStream live(args);
  report.config("n", n).config("m", m).config("r", r).config("num_batches", num_batches)
      .config("cost_model", engine.cost.name);

  std::printf("# T2: phase breakdown, N=%lld M=%lld, %d batches of R=%lld\n",
              static_cast<long long>(n), static_cast<long long>(m), num_batches,
              static_cast<long long>(r));
  bench::Table table({"P", "t_factor[s]", "t_solve_batch[s]", "factor/solve", "amortized_1",
                      "amortized_4", "rd_rebuild_4", "cp_comm_frac", "wait_frac"});

  std::vector<la::Matrix> batches;
  for (int s = 0; s < num_batches; ++s) {
    batches.push_back(btds::make_rhs(n, m, r, static_cast<std::uint64_t>(s + 1)));
  }

  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, n, m);
  for (int p : args.smoke() ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16, 64}) {
    // Fresh tracer per rank count: one session timeline (factor, then
    // every solve batch) to attribute.
    obs::Tracer tracer;
    auto eng = engine;
    eng.tracer = &tracer;
    eng.threads_per_rank = args.threads();
    core::Session session(core::Method::kArd, sys, p, {.engine = eng});
    if (live.enabled()) session.set_telemetry(live.handle());
    session.factor();
    for (const auto& b : batches) (void)session.solve(b);

    const obs::Attribution attr = obs::analyze(tracer);
    const double t_factor = session.factor_vtime();
    const std::vector<double>& solves = session.solve_vtimes();
    const double avg_solve =
        std::accumulate(solves.begin(), solves.end(), 0.0) / static_cast<double>(solves.size());
    const double amortized1 = t_factor + avg_solve;
    const double amortized4 = t_factor + num_batches * avg_solve;
    // Classic RD re-factors for every batch.
    const double rd4 = num_batches * (t_factor + avg_solve);
    double wait_sum = 0.0;
    for (const obs::RankBreakdown& rb : attr.ranks) wait_sum += rb.wait_s;
    const double wait_frac =
        attr.makespan_s > 0.0
            ? wait_sum / (static_cast<double>(attr.nranks) * attr.makespan_s)
            : 0.0;
    const obs::CriticalPath& cp = attr.critical_path;
    const double cp_comm = cp.length_s > 0.0 ? cp.comm_s / cp.length_s : 0.0;
    table.add_row({bench::fmt_int(p), bench::fmt_sci(t_factor), bench::fmt_sci(avg_solve),
                   bench::fmt(t_factor / avg_solve), bench::fmt_sci(amortized1),
                   bench::fmt_sci(amortized4), bench::fmt_sci(rd4), bench::fmt(cp_comm),
                   bench::fmt(wait_frac)});
  }
  table.print();
  report.add_table("main", table);
  report.write();
  std::printf("\nExpected shapes: factor/solve stays roughly constant in P (both phases\n"
              "share the N/P + log P structure); rd_rebuild_4 exceeds amortized_4 by a\n"
              "factor approaching (1 + factor/solve) as batches accumulate; cp_comm_frac\n"
              "and wait_frac grow with P as the log P scan rounds take over — the\n"
              "overlappable share a pipelined scan could hide.\n");
  return 0;
}
