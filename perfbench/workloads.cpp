// The three workloads of the wall-clock benchmark (README.md explains why
// each was chosen). Inputs come only from the seed; every timed result is
// checked against serial block Thomas on the same system, outside the
// timed region.

#include <cmath>
#include <exception>
#include <memory>
#include <string>

#include "common.hpp"
#include "service_load.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/thomas.hpp"

namespace perfbench {

using namespace ardbt;

namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Minimum timed operations, so the tail always has ten samples beyond it.
constexpr std::size_t kMinOps = 40;

std::uint64_t sys_bytes(const Shape& s) {
  return 3ull * static_cast<std::uint64_t>(s.n * s.m * s.m) * sizeof(double);
}
std::uint64_t panel_bytes(const Shape& s) {
  return static_cast<std::uint64_t>(s.n * s.m * s.r) * sizeof(double);
}

std::uint64_t arena_slab_allocs(const core::Session& s) {
  std::uint64_t n = 0;
  for (int r = 0; r < s.nranks(); ++r) n += s.arena_stats(r).slab_allocs;
  return n;
}

std::string describe_error(const char* what, std::size_t i, double err) {
  return std::string(what) + " op " + std::to_string(i) + ": relative error " +
         std::to_string(err) + " against serial Thomas";
}

}  // namespace

double rel_error(const la::Matrix& x, const la::Matrix& ref) {
  if (x.rows() != ref.rows() || x.cols() != ref.cols()) return INFINITY;
  double diff = 0.0, scale = 0.0;
  const auto xs = x.data();
  const auto rs = ref.data();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    diff = std::max(diff, std::abs(xs[i] - rs[i]));
    scale = std::max(scale, std::abs(rs[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

WorkloadResult run_timestep(const RunOptions& opts) {
  const Shape sh = kTimestepShape;
  constexpr int kBatches = 2;  // distinct right-hand-side panels, reused in turn
  constexpr int kWarmup = 3;
  WorkloadResult res;
  res.shape = sh;
  const core::SessionConfig config = session_config();

  std::unique_ptr<btds::BlockTridiag> sys;
  std::vector<la::Matrix> rhs;
  std::unique_ptr<core::Session> session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();  // it borrows the system about to be replaced
    const double t0 = now_s();
    sys = std::make_unique<btds::BlockTridiag>(
        btds::make_problem(btds::ProblemKind::kDiagDominant, sh.n, sh.m, mix_seed(opts.seed, 1)));
    rhs.clear();
    for (int b = 0; b < kBatches; ++b) {
      rhs.push_back(btds::make_rhs(sh.n, sh.m, sh.r, mix_seed(opts.seed, 2 + b)));
    }
    session = std::make_unique<core::Session>(core::Method::kArd, *sys, kRanks, config);
    session->factor();
    for (int w = 0; w < kWarmup; ++w) (void)session->solve(rhs[w % kBatches]);
    res.setup_s.push_back(now_s() - t0);
  }

  std::vector<la::Matrix> ref;
  {
    const auto thomas = btds::ThomasFactorization::factor(*sys);
    for (const la::Matrix& b : rhs) ref.push_back(thomas.solve(b));
  }

  const std::uint64_t allocs0 = arena_slab_allocs(*session);
  const double start = now_s();
  for (std::size_t i = 0; i < kMinOps || now_s() - start < opts.seconds; ++i) {
    const la::Matrix& b = rhs[i % kBatches];
    ++res.attempted;
    la::Matrix x;
    const double t0 = now_s();
    try {
      ScopedSpan span(opts.tracer, "core.Session::solve");
      x = session->solve(b);
    } catch (const std::exception& e) {
      res.fail(std::string("timestep solve threw: ") + e.what());
      continue;
    }
    res.op_s.push_back(now_s() - t0);
    const double err = rel_error(x, ref[i % kBatches]);
    if (!(err <= kTolerance)) res.fail(describe_error("timestep", i, err));
  }
  const std::uint64_t allocs1 = arena_slab_allocs(*session);
  if (allocs1 != allocs0) {
    res.fail("timestep: arena slab_allocs grew by " + std::to_string(allocs1 - allocs0) +
             " across timed solves (steady state broken)");
  }
  for (double t : res.op_s) res.loop_wall_s += t;
  res.columns = static_cast<double>(res.op_s.size() * static_cast<std::size_t>(sh.r));
  res.model_s = session->solve_vtimes().back();
  res.working_set_bytes = sys_bytes(sh) + kRanks * session->storage_bytes() +
                          2 * kBatches * panel_bytes(sh);
  return res;
}

WorkloadResult run_refactor(const RunOptions& opts) {
  const Shape sh = kRefactorShape;
  constexpr int kSystems = 3;  // consecutive steps never share a matrix
  WorkloadResult res;
  res.shape = sh;
  const core::SessionConfig config = session_config();

  std::vector<btds::BlockTridiag> systems;
  std::vector<la::Matrix> rhs;
  double model_s = 0.0;
  std::size_t storage = 0;
  auto step = [&](std::size_t i) {
    core::Session session(core::Method::kArd, systems[i % kSystems], kRanks, config);
    session.factor();
    la::Matrix x = session.solve(rhs[i % kSystems]);
    model_s = session.factor_vtime() + session.solve_vtimes().back();
    storage = session.storage_bytes();
    return x;
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    systems.clear();
    rhs.clear();
    const double t0 = now_s();
    for (int k = 0; k < kSystems; ++k) {
      systems.push_back(btds::make_problem(btds::ProblemKind::kDiagDominant, sh.n, sh.m,
                                           mix_seed(opts.seed, 10 + k)));
      rhs.push_back(btds::make_rhs(sh.n, sh.m, sh.r, mix_seed(opts.seed, 20 + k)));
    }
    (void)step(0);  // warm-up
    res.setup_s.push_back(now_s() - t0);
  }

  std::vector<la::Matrix> ref;
  for (int k = 0; k < kSystems; ++k) {
    ref.push_back(btds::ThomasFactorization::factor(systems[k]).solve(rhs[k]));
  }

  const double start = now_s();
  for (std::size_t i = 0; i < kMinOps || now_s() - start < opts.seconds; ++i) {
    ++res.attempted;
    la::Matrix x;
    const double t0 = now_s();
    try {
      ScopedSpan span(opts.tracer, "core.Session::step");
      x = step(i);
    } catch (const std::exception& e) {
      res.fail(std::string("refactor step threw: ") + e.what());
      continue;
    }
    res.op_s.push_back(now_s() - t0);
    const double err = rel_error(x, ref[i % kSystems]);
    if (!(err <= kTolerance)) res.fail(describe_error("refactor", i, err));
  }
  for (double t : res.op_s) res.loop_wall_s += t;
  res.columns = static_cast<double>(res.op_s.size() * static_cast<std::size_t>(sh.r));
  res.model_s = model_s;
  res.working_set_bytes = sys_bytes(sh) + kRanks * storage + 2 * panel_bytes(sh);
  return res;
}

WorkloadResult run_service(const RunOptions& opts) {
  WorkloadResult res;
  res.shape = kServiceShape;
  std::unique_ptr<ServiceLoad> load;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    load.reset();
    const double t0 = now_s();
    load = std::make_unique<ServiceLoad>(opts.seed);
    ServiceRound warm(*load, kServiceWarmupRequests, nullptr);
    warm.run();
    res.setup_s.push_back(now_s() - t0);
  }
  load->compute_references();

  ServiceSamples samples;
  ServiceRound::Counts first;
  const double start = now_s();
  for (int round = 0; round == 0 || now_s() - start < opts.seconds; ++round) {
    ServiceRound r(*load, kServiceRequests, opts.tracer);
    r.run();
    r.check(res);
    if (round == 0) {
      first = r.counts();
    } else if (!(r.counts() == first)) {
      res.fail("service round " + std::to_string(round) +
               " diverged from round 0 (virtual-clock replay must be deterministic)");
    }
    r.collect(samples);
    res.loop_wall_s += r.wall_s();
    res.columns += static_cast<double>(r.counts().done);
  }
  res.op_s = samples.batch_s;
  res.shape.r = std::max<la::index_t>(1, std::lround(median(samples.hit_cols)));
  res.model_s = first.busy_s / static_cast<double>(first.batches);
  res.working_set_bytes = load->bytes() + kServiceBudget;
  report_service(samples, first, res.layer);
  return res;
}

}  // namespace perfbench
