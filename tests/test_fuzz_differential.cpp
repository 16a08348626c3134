// Randomized differential testing: many seeded problems, every solver in
// the library cross-checked against block Thomas. Shapes are drawn from a
// seeded generator so failures are reproducible by seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/btds/banded_lu.hpp"
#include "src/btds/cyclic_reduction.hpp"
#include "src/btds/distributed.hpp"
#include "src/la/blas1.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/ard.hpp"
#include "src/core/solver.hpp"
#include "src/mpsim/engine.hpp"
#include "tests/run_ranks.hpp"

namespace ardbt {
namespace {

using btds::BlockTridiag;
using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::index_t;
using la::Matrix;

struct FuzzCase {
  ProblemKind kind;
  index_t n, m, r;
  int p;
};

FuzzCase draw_case(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 2654435761ULL + 1);
  const ProblemKind kinds[] = {ProblemKind::kDiagDominant, ProblemKind::kPoisson2D,
                               ProblemKind::kConvectionDiffusion, ProblemKind::kToeplitz};
  FuzzCase c;
  c.kind = kinds[rng() % 4];
  c.n = 1 + static_cast<index_t>(rng() % 48);
  c.m = 1 + static_cast<index_t>(rng() % 6);
  c.r = 1 + static_cast<index_t>(rng() % 5);
  c.p = 1 + static_cast<int>(rng() % 6);
  if (c.n < c.p) c.p = static_cast<int>(c.n);
  return c;
}

class FuzzDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDifferential, AllSolversMatchThomas) {
  const FuzzCase c = draw_case(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "seed=" << GetParam() << " kind=" << btds::to_string(c.kind) << " N=" << c.n
               << " M=" << c.m << " R=" << c.r << " P=" << c.p);

  const BlockTridiag sys = make_problem(c.kind, c.n, c.m, GetParam());
  const Matrix b = make_rhs(c.n, c.m, c.r, GetParam() + 1);
  const Matrix x_ref = btds::thomas_solve(sys, b);
  const double scale = la::norm_max(x_ref.view()) + 1.0;

  const auto check = [&](const Matrix& x, double tol, const char* name) {
    for (index_t i = 0; i < x.rows(); ++i) {
      for (index_t j = 0; j < x.cols(); ++j) {
        ASSERT_NEAR(x(i, j), x_ref(i, j), tol * scale) << name << " at (" << i << "," << j << ")";
      }
    }
  };
  check(core::solve(core::Method::kArd, sys, b, c.p).x, 1e-9, "ard");
  check(core::solve(core::Method::kPcr, sys, b, c.p).x, 1e-9, "pcr");
  check(btds::cyclic_reduction_solve(sys, b), 1e-9, "cyclic reduction");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential, ::testing::Range<std::uint64_t>(0, 60),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

// ------------------------------------------------------------------------
// Option cross-product sweep of the ARD spike path: every (P, N, M, pivot,
// input storage) combination runs factor, solve, solve, update,
// solve under four (chunk, threads) settings. Residuals are checked
// against banded LU and the four settings must agree bit for bit.

enum class SweepKind { kDiagDominant, kConditioned, kNearSingular, kSpd, kPoisson2D };

const char* sweep_kind_name(SweepKind k) {
  switch (k) {
    case SweepKind::kDiagDominant:
      return "diagdom";
    case SweepKind::kConditioned:
      return "conditioned";
    case SweepKind::kNearSingular:
      return "near_singular";
    case SweepKind::kSpd:
      return "spd";
    case SweepKind::kPoisson2D:
      return "poisson2d";
  }
  return "?";
}

struct SweepCase {
  int p = 1;
  index_t n = 1, m = 1;
  btds::PivotKind pivot = btds::PivotKind::kLu;
  bool local = false;  ///< each rank's slice as input instead of the shared system
  SweepKind kind = SweepKind::kDiagDominant;
  std::uint64_t seed = 0;

  /// Ordering for "smallest failing combination": fewest unknowns first.
  auto size_key() const { return std::make_tuple(n * m, p, m, local, seed); }

  std::string describe() const {
    std::ostringstream os;
    os << "P=" << p << " N=" << n << " M=" << m
       << " pivot=" << (pivot == btds::PivotKind::kLu ? "lu" : "cholesky")
       << " input=" << (local ? "local" : "global") << " kind=" << sweep_kind_name(kind)
       << " seed=" << seed;
    return os.str();
  }
};

/// Random symmetric, strictly diagonally dominant (hence SPD) system with
/// A_{i+1} = C_i^T.
BlockTridiag make_spd(index_t n, index_t m, std::uint64_t seed) {
  BlockTridiag t = make_problem(ProblemKind::kDiagDominant, n, m, seed);
  for (index_t i = 0; i + 1 < n; ++i) {
    for (index_t r = 0; r < m; ++r) {
      for (index_t c = 0; c < m; ++c) t.lower(i + 1)(r, c) = t.upper(i)(c, r);
    }
  }
  for (index_t i = 0; i < n; ++i) {
    Matrix& d = t.diag(i);
    for (index_t r = 0; r < m; ++r) {
      for (index_t c = r + 1; c < m; ++c) d(r, c) = d(c, r) = 0.5 * (d(r, c) + d(c, r));
    }
    for (index_t r = 0; r < m; ++r) {
      double off = 1.0;
      for (index_t c = 0; c < m; ++c) {
        if (c != r) off += std::abs(d(r, c));
        if (i > 0) off += std::abs(t.lower(i)(r, c));
        if (i + 1 < n) off += std::abs(t.upper(i)(r, c));
      }
      d(r, r) = off;
    }
  }
  return t;
}

BlockTridiag make_sweep_system(const SweepCase& c) {
  switch (c.kind) {
    case SweepKind::kConditioned:
      return btds::make_conditioned(c.n, c.m, 1e6, c.seed);
    case SweepKind::kNearSingular:
      return btds::make_near_singular(c.n, c.m, 1e-6, c.seed);
    case SweepKind::kSpd:
      return make_spd(c.n, c.m, c.seed);
    case SweepKind::kPoisson2D:
      return make_problem(ProblemKind::kPoisson2D, c.n, c.m);
    case SweepKind::kDiagDominant:
      break;
  }
  return make_problem(ProblemKind::kDiagDominant, c.n, c.m, c.seed);
}

/// Residual bound per generator, or 1e3 x banded LU's own residual if that
/// is larger. Well-conditioned systems solve to near machine precision.
/// Block pivots without inter-block pivoting lose about the pivot growth
/// of the two stress generators (~1e6 each), as serial block Thomas does.
double residual_bound(SweepKind kind, double banded) {
  double base = 1e-12;
  if (kind == SweepKind::kConditioned) base = 1e-9;
  if (kind == SweepKind::kNearSingular) base = 1e-7;
  return std::max(base, 1e3 * banded);
}

/// Whether the forward error is checked: the generators whose
/// conditioning shows in x (Poisson's grows with N and M).
bool checks_forward_error(SweepKind kind) {
  return kind == SweepKind::kConditioned || kind == SweepKind::kNearSingular ||
         kind == SweepKind::kPoisson2D;
}

/// max |x - ref| / max |ref|.
double forward_error(const Matrix& x, const Matrix& ref) {
  double diff = 0.0;
  for (index_t i = 0; i < x.rows(); ++i) {
    for (index_t j = 0; j < x.cols(); ++j) diff = std::max(diff, std::abs(x(i, j) - ref(i, j)));
  }
  return diff / la::norm_max(ref.view());
}

/// Forward-error bound against banded LU's x, built like residual_bound:
/// 1e3 x banded LU's own error (estimated by its one-step refinement
/// correction), or a per-generator floor. Banded LU pivots across the
/// band; block pivots without it lose about the near-singular generator's
/// pivot growth in x as they do in the residual.
double forward_error_bound(SweepKind kind, double banded_err) {
  const double base = kind == SweepKind::kNearSingular ? 1e-8 : 1e-12;
  return std::max(base, 1e3 * banded_err);
}

struct SweepRun {
  std::vector<Matrix> x;  ///< solve 1, solve 2, solve after update
  Matrix via_local;       ///< solve 1 again, in place on a rank-local copy of the rows
  Matrix via_inplace;     ///< solve 1 again, through solve_inplace
};

SweepRun run_sweep_case(const SweepCase& c, const BlockTridiag& sys, const BlockTridiag& sys2,
                        const Matrix& b1, const Matrix& b2, int changed_rank, index_t chunk,
                        int threads) {
  core::ArdOptions opts;
  opts.pivot = c.pivot;
  opts.chunk_cols = chunk;
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  engine.threads_per_rank = threads;
  engine.recv_timeout_wall = 20.0;  // a schedule hang fails typed, fast
  const btds::RowPartition part(c.n, c.p);
  SweepRun out;
  for (int k = 0; k < 3; ++k) out.x.emplace_back(b1.rows(), b1.cols());
  out.via_local = Matrix(b1.rows(), b1.cols());
  out.via_inplace = Matrix(b1.rows(), b1.cols());
  test::run_ranks(
      c.p,
      [&](mpsim::Comm& comm) {
        const bool changed = comm.rank() == changed_rank;
        BlockTridiag loc, loc2;
        if (c.local) {
          loc = btds::slice(sys, part, comm.rank());
          loc2 = btds::slice(sys2, part, comm.rank());
        }
        core::ArdFactorization f =
            core::ArdFactorization::factor(comm, c.local ? loc : sys, part, opts);
        f.solve(comm, b1, out.x[0]);
        f.solve(comm, b2, out.x[1]);
        const index_t row0 = part.begin(comm.rank()) * c.m;
        const index_t rows = part.count(comm.rank()) * c.m;
        const la::ConstMatrixView b_rows = b1.block(row0, 0, rows, b1.cols());
        Matrix x_local = la::to_matrix(b_rows);
        f.solve_inplace(comm, x_local.view());
        la::copy(x_local.view(), out.via_local.block(row0, 0, rows, b1.cols()));
        const la::MatrixView x_rows = out.via_inplace.block(row0, 0, rows, b1.cols());
        la::copy(b_rows, x_rows);
        f.solve_inplace(comm, x_rows);
        f.update(comm, c.local ? loc2 : sys2, changed);
        f.solve(comm, b1, out.x[2]);
      },
      engine);
  return out;
}

/// Empty on success, else what went wrong.
std::string check_sweep_case(const SweepCase& c) {
  const BlockTridiag sys = make_sweep_system(c);
  // The update shifts the diagonal of one rank's rows (positive, so an SPD
  // system stays SPD); that rank passes rows_changed = true.
  const btds::RowPartition part(c.n, c.p);
  const int changed_rank = c.p > 1 ? 1 : 0;
  BlockTridiag sys2 = sys;
  for (index_t i = part.begin(changed_rank); i < part.end(changed_rank); ++i) {
    for (index_t d = 0; d < c.m; ++d) sys2.diag(i)(d, d) += 0.75;
  }
  const index_t r = 7;
  const Matrix b1 = make_rhs(c.n, c.m, r, c.seed + 11);
  const Matrix b2 = make_rhs(c.n, c.m, r, c.seed + 12);

  SweepRun base;
  try {
    base = run_sweep_case(c, sys, sys2, b1, b2, changed_rank, 0, 1);
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
  const struct {
    const BlockTridiag* t;
    const Matrix* b;
  } problems[3] = {{&sys, &b1}, {&sys, &b2}, {&sys2, &b1}};
  const btds::BandedLuFactorization lu[2] = {btds::BandedLuFactorization::factor(sys),
                                             btds::BandedLuFactorization::factor(sys2)};
  for (int k = 0; k < 3; ++k) {
    const BlockTridiag& t = *problems[k].t;
    const Matrix& b = *problems[k].b;
    const Matrix& x = base.x[static_cast<std::size_t>(k)];
    const btds::BandedLuFactorization& f = lu[k == 2 ? 1 : 0];
    const Matrix x_banded = f.solve(b);
    const double banded = btds::relative_residual(t, x_banded, b);
    const double res = btds::relative_residual(t, x, b);
    if (!(res <= residual_bound(c.kind, banded))) {
      std::ostringstream os;
      os << "solve " << k << ": residual " << res << " (banded LU " << banded << ")";
      return os.str();
    }
    if (!checks_forward_error(c.kind)) continue;
    Matrix r = btds::apply(t, x_banded);
    for (index_t i = 0; i < r.rows(); ++i) {
      for (index_t j = 0; j < r.cols(); ++j) r(i, j) = b(i, j) - r(i, j);
    }
    const double banded_err = la::norm_max(f.solve(r).view()) / la::norm_max(x_banded.view());
    const double err = forward_error(x, x_banded);
    if (!(err <= forward_error_bound(c.kind, banded_err))) {
      std::ostringstream os;
      os << "solve " << k << ": forward error " << err << " against banded LU (its own "
         << banded_err << ")";
      return os.str();
    }
  }
  // solve and solve_inplace on rank-local and on strided rows agree bit
  // for bit, and every (chunk, threads) setting reproduces the default's
  // bits.
  const auto same_bits = [](const Matrix& a, const Matrix& b) {
    return std::memcmp(a.data().data(), b.data().data(), a.data().size_bytes()) == 0;
  };
  const auto compare = [&](const SweepRun& run, const std::string& setting) -> std::string {
    if (!same_bits(run.via_local, base.x[0])) {
      return "solve_inplace on local rows differs from solve at " + setting;
    }
    if (!same_bits(run.via_inplace, base.x[0])) {
      return "solve_inplace differs from solve at " + setting;
    }
    for (std::size_t k = 0; k < 3; ++k) {
      if (!same_bits(run.x[k], base.x[k])) {
        return "solve " + std::to_string(k) + " not bit-identical at " + setting;
      }
    }
    return {};
  };
  if (std::string err = compare(base, "chunk=0 threads=1"); !err.empty()) return err;
  for (const auto& [chunk, threads] : {std::pair<index_t, int>{5, 1}, {0, 3}, {5, 3}}) {
    const std::string setting =
        "chunk=" + std::to_string(chunk) + " threads=" + std::to_string(threads);
    SweepRun other;
    try {
      other = run_sweep_case(c, sys, sys2, b1, b2, changed_rank, chunk, threads);
    } catch (const std::exception& e) {
      return setting + " threw: " + e.what();
    }
    if (std::string err = compare(other, setting); !err.empty()) return err;
  }
  return {};
}

TEST(SpikeSweep, OptionCrossProductMatchesBandedLu) {
  std::mt19937_64 rng(20260417);
  std::vector<std::pair<SweepCase, std::string>> failures;
  int cases = 0;
  for (const int p : {1, 2, 3, 5, 8}) {
    const index_t np = p;
    for (const index_t n :
         {np, np + 1, 2 * np - 1, 2 * np + static_cast<index_t>(rng() % (4 * np + 1))}) {
      for (const index_t m : {index_t{1}, index_t{3}, index_t{8}, index_t{16}}) {
        for (const btds::PivotKind pivot : {btds::PivotKind::kLu, btds::PivotKind::kCholesky}) {
          for (const bool local : {false, true}) {
            SweepCase c;
            c.p = p;
            c.n = std::max<index_t>(n, 1);
            c.m = m;
            c.pivot = pivot;
            c.local = local;
            c.seed = rng() % 100000;
            if (pivot == btds::PivotKind::kCholesky) {
              c.kind = SweepKind::kSpd;
            } else {
              const SweepKind lu_kinds[] = {SweepKind::kDiagDominant, SweepKind::kConditioned,
                                            SweepKind::kNearSingular};
              c.kind = lu_kinds[cases % 3];
            }
            ++cases;
            std::string err = check_sweep_case(c);
            if (!err.empty()) failures.emplace_back(c, std::move(err));
          }
        }
      }
    }
  }
  // A long case first shows the support cut on both spikes of an interior
  // segment as long as a rank's (rows [1, N/P + 1)), then runs.
  const auto check_long_case = [&](const SweepCase& c) {
    ++cases;
    const BlockTridiag sys = make_sweep_system(c);
    const index_t seg_rows = c.n / c.p;
    const auto f = btds::ThomasFactorization::factor_segment(sys, 1, seg_rows, c.pivot);
    EXPECT_LT(f.v_rows(), seg_rows) << c.describe();
    EXPECT_GT(f.w_first(), 0) << c.describe();
    std::string err = check_sweep_case(c);
    if (!err.empty()) failures.emplace_back(c, std::move(err));
  };
  // Long decaying segments (N/P >= 1500): the support cutoff engages on
  // every rank, and the cut spikes must keep the residual and bit-identity
  // contracts.
  for (const index_t m : {index_t{3}, index_t{8}, index_t{16}}) {
    for (const bool local : {false, true}) {
      SweepCase c;
      c.p = 2 + static_cast<int>(rng() % 2);
      c.n = c.p * (1500 + static_cast<index_t>(rng() % 200));
      c.m = m;
      c.local = local;
      c.seed = rng() % 100000;
      c.pivot = cases % 2 == 0 ? btds::PivotKind::kLu : btds::PivotKind::kCholesky;
      c.kind = c.pivot == btds::PivotKind::kLu ? SweepKind::kDiagDominant : SweepKind::kSpd;
      check_long_case(c);
    }
  }
  // Long slowly decaying segments (2-D Poisson, N/P >= 1024): the spikes
  // reach working precision after about 100 rows at M = 8 and 190 at
  // M = 16, so the cut engages on every rank, under both pivot kinds (the
  // system is SPD).
  for (const index_t m : {index_t{8}, index_t{16}}) {
    for (const btds::PivotKind pivot : {btds::PivotKind::kLu, btds::PivotKind::kCholesky}) {
      for (const bool local : {false, true}) {
        SweepCase c;
        c.p = 2 + static_cast<int>(rng() % 2);
        c.n = c.p * (1024 + static_cast<index_t>(rng() % 64));
        c.m = m;
        c.pivot = pivot;
        c.local = local;
        c.kind = SweepKind::kPoisson2D;
        check_long_case(c);
      }
    }
  }
  // Long ill-conditioned segments (N/P >= 1024): block rows scaled over six
  // decades, or a near-singular pivot planted on row 0. Both generators
  // stay block diagonally dominant, so the spikes decay and the cut
  // engages on every rank, and the forward error is checked against
  // banded LU's under forward_error_bound.
  for (const SweepKind kind : {SweepKind::kConditioned, SweepKind::kNearSingular}) {
    for (const index_t m : {index_t{8}, index_t{16}}) {
      for (const bool local : {false, true}) {
        SweepCase c;
        c.p = 2 + static_cast<int>(rng() % 2);
        c.n = c.p * (1024 + static_cast<index_t>(rng() % 64));
        c.m = m;
        c.local = local;
        c.kind = kind;
        c.seed = rng() % 100000;
        check_long_case(c);
      }
    }
  }
  // 320 cross-product cases, 6 long decaying, 8 long Poisson and 8 long
  // ill-conditioned cases.
  EXPECT_EQ(cases, 342);
  if (!failures.empty()) {
    const auto smallest = std::min_element(
        failures.begin(), failures.end(),
        [](const auto& a, const auto& b) { return a.first.size_key() < b.first.size_key(); });
    ADD_FAILURE() << failures.size() << " of " << cases
                  << " sweep cases failed; smallest: " << smallest->first.describe() << ": "
                  << smallest->second;
  }
}

}  // namespace
}  // namespace ardbt
