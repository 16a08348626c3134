// Experiment T1: complexity validation. Cross-checks the analytic
// per-rank work model (core/flops.hpp) against the flops the solver
// actually charges, and reports communication volume and factored-state
// memory — the table backing the O(M^3 (N/P + log P)) factor /
// O(M^2 R (N/P + log P)) solve claims.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/btds/generators.hpp"
#include "src/core/ard.hpp"
#include "src/core/flops.hpp"
#include "src/mpsim/collectives.hpp"

namespace {

using namespace ardbt;

struct Sample {
  double factor_flops = 0.0;
  double solve_flops = 0.0;
  double msgs = 0.0;
  double bytes = 0.0;
  double storage = 0.0;
};

Sample measure(la::index_t n, la::index_t m, int p, la::index_t r) {
  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, n, m);
  const auto b = btds::make_rhs(n, m, r);
  la::Matrix x(b.rows(), b.cols());
  const btds::RowPartition part(n, p);
  Sample sample;
  std::vector<double> factor_flops(static_cast<std::size_t>(p));
  std::vector<double> solve_flops(static_cast<std::size_t>(p));
  std::vector<double> storage(static_cast<std::size_t>(p));

  mpsim::run(
      p,
      [&](mpsim::Comm& comm) {
        const double f0 = comm.stats().flops_charged;
        const auto f = core::ArdFactorization::factor(comm, sys, part);
        mpsim::barrier(comm);
        const double f1 = comm.stats().flops_charged;
        f.solve(comm, b, x);
        mpsim::barrier(comm);
        const double f2 = comm.stats().flops_charged;
        factor_flops[static_cast<std::size_t>(comm.rank())] = f1 - f0;
        solve_flops[static_cast<std::size_t>(comm.rank())] = f2 - f1;
        storage[static_cast<std::size_t>(comm.rank())] = static_cast<double>(f.storage_bytes());
        if (comm.rank() == 0) {
          sample.msgs = static_cast<double>(comm.stats().msgs_sent);
          sample.bytes = static_cast<double>(comm.stats().bytes_sent);
        }
      },
      bench::virtual_engine());
  // The model is the busiest rank's count: end ranks run the most scan
  // merges, interior ranks the widest spike updates.
  sample.factor_flops = *std::max_element(factor_flops.begin(), factor_flops.end());
  sample.solve_flops = *std::max_element(solve_flops.begin(), solve_flops.end());
  // The largest rank's, not rank 0's: the end ranks hold one spike each.
  sample.storage = *std::max_element(storage.begin(), storage.end());
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  bench::JsonReport report(args, "bench_t1_complexity");
  report.config("cost_model", bench::virtual_engine().cost.name);
  std::printf("# T1: measured (busiest rank) vs modeled per-rank work; communication of\n"
              "# rank 0; memory of the busiest rank\n");
  bench::Table table({"N", "M", "P", "R", "factor_meas", "factor_model", "f_ratio",
                      "solve_meas", "solve_model", "s_ratio", "msgs", "MB_sent", "MB_state"});

  struct Config {
    la::index_t n, m, r;
    int p;
  };
  const std::vector<Config> configs =
      args.smoke() ? std::vector<Config>{{64, 4, 4, 2}, {64, 8, 4, 4}}
                   : std::vector<Config>{
                         {512, 8, 16, 1},   {512, 8, 16, 4},   {512, 8, 16, 16},
                         {2048, 8, 16, 16}, {2048, 16, 16, 16}, {2048, 32, 16, 16},
                         {2048, 16, 64, 16}, {2048, 16, 256, 16}, {2048, 16, 1024, 16},
                         {4096, 16, 64, 32},
                     };
  for (const Config& c : configs) {
    const Sample s = measure(c.n, c.m, c.p, c.r);
    const double fm = core::flops::ard_factor(c.n, c.m, c.p);
    const double sm = core::flops::ard_solve(c.n, c.m, c.r, c.p);
    table.add_row({bench::fmt_int(static_cast<double>(c.n)),
                   bench::fmt_int(static_cast<double>(c.m)), bench::fmt_int(c.p),
                   bench::fmt_int(static_cast<double>(c.r)), bench::fmt_sci(s.factor_flops),
                   bench::fmt_sci(fm), bench::fmt(s.factor_flops / fm),
                   bench::fmt_sci(s.solve_flops), bench::fmt_sci(sm),
                   bench::fmt(s.solve_flops / sm), bench::fmt_int(s.msgs),
                   bench::fmt(s.bytes / 1e6), bench::fmt(s.storage / 1e6)});
  }
  table.print();
  report.add_table("main", table);
  report.write();
  std::printf("\nExpected shapes: f_ratio and s_ratio within ~[0.9, 1.0] (the model is a\n"
              "per-rank critical path: interior-rank rows plus end-rank merges);\n"
              "msgs grows like log P; state ~ M^2 N/P.\n");
  return 0;
}
