// Ablation B-abl-pivot: LU vs Cholesky pivot factorization on SPD
// systems. Cholesky does ~half the pivot-factor flops and skips pivot
// searches; the solve phase is unchanged in order. Expected shape: factor
// flops drop by the pivot-factor share (~15-25% of total factor work),
// accuracy identical.

#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/ard.hpp"
#include "src/mpsim/collectives.hpp"

int main(int argc, char** argv) {
  using namespace ardbt;
  const auto engine = bench::virtual_engine();
  const bench::Args args(argc, argv);
  const la::index_t n = args.smoke() ? 128 : 2048;
  const la::index_t r = args.smoke() ? 4 : 32;
  const int p = 4;
  bench::JsonReport report(args, "bench_abl_pivot");
  report.config("n", n).config("r", r).config("p", p).config("cost_model", engine.cost.name);

  std::printf("# B-abl-pivot: LU vs Cholesky pivots on the SPD Poisson family "
              "(N=%lld, R=%lld, P=%d)\n",
              static_cast<long long>(n), static_cast<long long>(r), p);
  bench::Table table({"M", "t_factor_lu[s]", "t_factor_chol[s]", "lu/chol", "residual_lu",
                      "residual_chol"});
  for (la::index_t m : args.smoke() ? std::vector<la::index_t>{4, 8}
                                    : std::vector<la::index_t>{4, 8, 16, 32}) {
    const auto sys = btds::make_problem(btds::ProblemKind::kPoisson2D, n, m);
    const auto b = btds::make_rhs(n, m, r);
    const btds::RowPartition part(n, p);

    double times[2] = {0.0, 0.0};
    double residuals[2] = {0.0, 0.0};
    for (int variant = 0; variant < 2; ++variant) {
      core::ArdOptions opts;
      opts.pivot = variant == 0 ? btds::PivotKind::kLu : btds::PivotKind::kCholesky;
      la::Matrix x(b.rows(), b.cols());
      mpsim::run(
          p,
          [&](mpsim::Comm& comm) {
            mpsim::barrier(comm);
            const double t0 = comm.vtime();
            const auto f = core::ArdFactorization::factor(comm, sys, part, opts);
            mpsim::barrier(comm);
            if (comm.rank() == 0) times[variant] = comm.vtime() - t0;
            f.solve(comm, b, x);
          },
          engine);
      residuals[variant] = btds::relative_residual(sys, x, b);
    }
    table.add_row({bench::fmt_int(static_cast<double>(m)), bench::fmt_sci(times[0]),
                   bench::fmt_sci(times[1]), bench::fmt(times[0] / times[1]),
                   bench::fmt_sci(residuals[0]), bench::fmt_sci(residuals[1])});
  }
  table.print();
  report.add_table("main", table);
  report.write();
  std::printf("\nExpected shapes: Cholesky halves the pivot-factorization share of the\n"
              "factor phase (~5%% of the total per the flop model), so lu/chol sits a\n"
              "little above 1; residuals must match to machine precision.\n");
  return 0;
}
