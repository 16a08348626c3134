// Experiment T4 (extension): factored-state memory. ARD caches one
// boundary-reduced level (O(M^2 N/P) per rank plus the corner spikes on
// their support, plus O(M^2 log P) of scan caches); accelerated PCR must
// cache every one of its ceil(log2 N) levels. This table quantifies the
// memory side of the F6 trade-off. Both columns are the busiest rank's
// bytes; v_rows and w_rows are the spike support of rank 1, an interior
// rank from P = 3 on (the end ranks compute one spike each, so at P = 2
// rank 1 has no W), which is what moves ard_MB on a decaying segment.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/ard.hpp"
#include "src/core/pcr.hpp"

int main(int argc, char** argv) {
  using namespace ardbt;
  const bench::Args args(argc, argv);
  bench::JsonReport report(args, "bench_t4_memory");
  std::printf("# T4: factored-state bytes per rank (the busiest rank)\n");
  bench::Table table({"N", "M", "P", "ard_MB", "pcr_MB", "pcr/ard", "log2N", "v_rows", "w_rows"});

  struct Config {
    la::index_t n, m;
    int p;
  };
  const std::vector<Config> configs =
      args.smoke() ? std::vector<Config>{{64, 4, 2}, {128, 8, 4}}
                   : std::vector<Config>{{512, 8, 4},   {2048, 8, 4},  {8192, 8, 4},
                                         {2048, 16, 4}, {2048, 32, 4}, {2048, 16, 16}};
  for (const Config& c : configs) {
    const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, c.n, c.m);
    const btds::RowPartition part(c.n, c.p);
    std::vector<std::size_t> ard(static_cast<std::size_t>(c.p));
    std::vector<std::size_t> pcr(static_cast<std::size_t>(c.p));
    mpsim::run(c.p, [&](mpsim::Comm& comm) {
      const auto fa = core::ArdFactorization::factor(comm, sys, part);
      const auto fp = core::PcrFactorization::factor(comm, sys, part);
      ard[static_cast<std::size_t>(comm.rank())] = fa.storage_bytes();
      pcr[static_cast<std::size_t>(comm.rank())] = fp.storage_bytes();
    });
    const std::size_t ard_bytes = *std::max_element(ard.begin(), ard.end());
    const std::size_t pcr_bytes = *std::max_element(pcr.begin(), pcr.end());
    // Rank 1's spike support, as its ARD factor computes it: V on block
    // rows [0, v_rows), W on the last w_rows of its N/P rows.
    const auto seg =
        btds::ThomasFactorization::factor_segment(sys, part.begin(1), part.count(1));
    double log2n = 0;
    for (la::index_t s = 1; s < c.n; s *= 2) log2n += 1;
    table.add_row({bench::fmt_int(static_cast<double>(c.n)),
                   bench::fmt_int(static_cast<double>(c.m)), bench::fmt_int(c.p),
                   bench::fmt(static_cast<double>(ard_bytes) / 1e6),
                   bench::fmt(static_cast<double>(pcr_bytes) / 1e6),
                   bench::fmt(static_cast<double>(pcr_bytes) / static_cast<double>(ard_bytes)),
                   bench::fmt_int(log2n), bench::fmt_int(static_cast<double>(seg.v_rows())),
                   bench::fmt_int(static_cast<double>(part.count(1) - seg.w_first()))});
  }
  table.print();
  report.add_table("main", table);
  report.write();
  std::printf("\nExpected shapes: ard_MB ~ 2 M^2 (N/P) doubles plus the spikes' support\n"
              "(M^2 doubles per row of v_rows + w_rows: 10-20 rows per spike on a dominant\n"
              "segment, which falls to working precision that fast, and the whole segment\n"
              "when it is shorter), plus O(M^2) per rank for the two-port (its six blocks\n"
              "hold each boundary coupling once), F, G, the interface LU and\n"
              "the O(M^2 log P) scan caches; pcr/ard tracks ~log2 N times a small\n"
              "constant; both scale with M^2 and 1/P.\n");
  return 0;
}
