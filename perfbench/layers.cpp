// Per-layer probes of the traced run. Each probe times public calls of one
// module from outside, with a span around every call (or batch of calls):
// la kernels at the workloads' block and panel shapes, serial block Thomas
// on the whole system and on one rank's segment, ARD rank bodies inside a
// direct mpsim::run, two-port merges, empty engine runs, and Session calls
// against the same direct runs. From these the operation of each workload
// is split into self times along its blocking path:
//
//   service self  = hit batch - Session::solve at the same column count
//   session self  = Session call - direct mpsim::run of the same phase
//   mpsim self    = direct run - the union of its rank-body spans
//   core self     = rank-body window - btds self
//   btds self     = the serial Thomas calls an ARD rank body makes
//                   (ard.hpp: factor = 2 segment factorizations + one
//                   2M-column solve; solve = 2 segment solves), each timed
//                   alone on one rank's segment
//
// Their sum (service self only on the service workload) is set beside the
// traced end-to-end median (path.coverage).

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "common.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/partition.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/ard.hpp"
#include "src/core/twoport.hpp"
#include "src/la/gemm.hpp"
#include "src/la/lu.hpp"
#include "src/mpsim/engine.hpp"

namespace perfbench {

using namespace ardbt;

namespace {

/// Wall each probe measures for at least, and the minimum sample count.
constexpr double kProbeSeconds = 1.0;
constexpr std::size_t kProbeSamples = 7;

la::Matrix random_matrix(la::index_t rows, la::index_t cols, double scale,
                         std::uint64_t& state) {
  la::Matrix a(rows, cols);
  for (double& v : a.data()) v = scale * (2.0 * uniform01(state) - 1.0);
  return a;
}

/// Per-call wall seconds of `fn`, one sample per batch of calls; each
/// batch is one span carrying its call count.
std::vector<double> time_calls(Tracer* tracer, const std::string& name,
                               const std::function<void()>& fn, std::uint64_t parent = 0,
                               int thread = 0) {
  int per = 1;
  for (;;) {  // batch size: at least 1 ms of calls per sample
    const double t0 = now_s();
    for (int i = 0; i < per; ++i) fn();
    if (now_s() - t0 >= 1e-3 || per >= (1 << 20)) break;
    per *= 2;
  }
  std::vector<double> out;
  const double start = now_s();
  while (out.size() < kProbeSamples || now_s() - start < kProbeSeconds) {
    ScopedSpan span(tracer, name, parent, thread);
    span.set_count(per);
    const double t0 = now_s();
    for (int i = 0; i < per; ++i) fn();
    out.push_back((now_s() - t0) / per);
  }
  return out;
}

/// Medians of repeated direct engine runs of one ARD phase.
struct PhaseRuns {
  double wall_s = 0.0;     ///< mpsim::run, caller's view
  double window_s = 0.0;   ///< union of the rank-body spans
  double slowest_s = 0.0;  ///< slowest rank body
  double skew = 0.0;       ///< slowest over fastest rank body
  double session_s = 0.0;  ///< the Session call of the same phase, interleaved
  mpsim::RunReport report; ///< counters of the last run (exact)
};

/// Times one Session call of a phase; returns its wall seconds.
using SessionCall = std::function<double()>;

/// Direct ArdFactorization runs at one shape: `factor` then `solve` on
/// P rank threads, each rank body inside a span whose parent is the run.
/// A given Session call runs after each direct run, so host drift hits
/// both alike and their difference is the Session's own time.
class DirectArd {
 public:
  DirectArd(Tracer* tracer, const btds::BlockTridiag& sys, const la::Matrix& b)
      : tracer_(tracer), sys_(sys), b_(b), part_(sys.num_blocks(), kRanks),
        facts_(kRanks), ws_(kRanks), x_(b.rows(), b.cols()) {}

  PhaseRuns factor(const SessionCall& session = nullptr) {
    return runs(
        "core.ArdFactorization::factor", session,
        [this](mpsim::Comm& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          facts_[r] = core::ArdFactorization::factor(comm, sys_, part_, {}, &ws_[r]);
        },
        // Free the previous factorizations outside the timed run.
        [this] {
          for (core::ArdFactorization& f : facts_) f = core::ArdFactorization();
        });
  }
  PhaseRuns solve(const SessionCall& session = nullptr) {
    return runs("core.ArdFactorization::solve", session, [this](mpsim::Comm& comm) {
      facts_[static_cast<std::size_t>(comm.rank())].solve(comm, b_, x_);
    });
  }
  /// Answer of the latest direct solve run.
  const la::Matrix& x() const { return x_; }

 private:
  PhaseRuns runs(const std::string& body_name, const SessionCall& session,
                 const std::function<void(mpsim::Comm&)>& body,
                 const std::function<void()>& before = [] {}) {
    const mpsim::EngineOptions engine = session_config().engine;
    std::vector<double> wall, window, slowest, skew, session_s;
    std::vector<std::pair<double, double>> span_t(kRanks);
    PhaseRuns out;
    const double start = now_s();
    while (wall.size() < kProbeSamples || now_s() - start < kProbeSeconds) {
      before();
      ScopedSpan run_span(tracer_, "mpsim::run", 0);
      const std::uint64_t parent = run_span.id();
      const double t0 = now_s();
      out.report = mpsim::run(kRanks, [&](mpsim::Comm& comm) {
        const int r = comm.rank();
        ScopedSpan span(tracer_, body_name, parent, r + 1);
        const double b0 = now_s();
        body(comm);
        span_t[static_cast<std::size_t>(r)] = {b0, now_s()};
      }, engine);
      wall.push_back(now_s() - t0);
      double lo = span_t[0].first, hi = span_t[0].second;
      double dmax = 0.0, dmin = INFINITY;
      for (const auto& [a, b] : span_t) {
        lo = std::min(lo, a);
        hi = std::max(hi, b);
        dmax = std::max(dmax, b - a);
        dmin = std::min(dmin, b - a);
      }
      window.push_back(hi - lo);
      slowest.push_back(dmax);
      skew.push_back(dmax / dmin);
      if (session) session_s.push_back(session());
    }
    out.session_s = median(session_s);
    out.wall_s = median(wall);
    out.window_s = median(window);
    out.slowest_s = median(slowest);
    out.skew = median(skew);
    return out;
  }

  Tracer* tracer_;
  const btds::BlockTridiag& sys_;
  const la::Matrix& b_;
  btds::RowPartition part_;
  std::vector<core::ArdFactorization> facts_;
  std::vector<la::Workspace> ws_;
  la::Matrix x_;
};

/// Serial block Thomas timings at one shape (whole system and segment).
struct ThomasTimes {
  double factor_s = 0.0, solve_s = 0.0;              ///< whole system, R columns
  double local_factor_s = 0.0, local_solve_s = 0.0;  ///< one rank's segment, R columns
  double local_solve_2m_s = 0.0;                     ///< segment, 2M columns
  std::size_t local_bytes = 0;                       ///< one segment factorization
};

ThomasTimes probe_thomas(Tracer* tr, const btds::BlockTridiag& sys, const la::Matrix& b,
                         std::uint64_t seed) {
  ThomasTimes t;
  const Shape sh{sys.num_blocks(), sys.block_size(), b.cols()};
  t.factor_s = median(time_calls(tr, "btds.ThomasFactorization::factor",
                                 [&] { (void)btds::ThomasFactorization::factor(sys); }));
  const auto full = btds::ThomasFactorization::factor(sys);
  t.solve_s = median(time_calls(tr, "btds.ThomasFactorization::solve",
                                [&] { (void)full.solve(b); }));

  const btds::RowPartition part(sh.n, kRanks);
  const btds::BlockTridiag seg = btds::make_problem(btds::ProblemKind::kDiagDominant,
                                                    part.count(0), sh.m, mix_seed(seed, 300));
  const la::Matrix b_seg = btds::make_rhs(part.count(0), sh.m, sh.r, mix_seed(seed, 301));
  const la::Matrix b_2m = btds::make_rhs(part.count(0), sh.m, 2 * sh.m, mix_seed(seed, 302));
  t.local_factor_s = median(time_calls(tr, "btds.ThomasFactorization::factor[segment]",
                                       [&] { (void)btds::ThomasFactorization::factor(seg); }));
  const auto local = btds::ThomasFactorization::factor(seg);
  t.local_solve_s = median(time_calls(tr, "btds.ThomasFactorization::solve[segment]",
                                      [&] { (void)local.solve(b_seg); }));
  t.local_solve_2m_s = median(time_calls(tr, "btds.ThomasFactorization::solve[segment,2M]",
                                         [&] { (void)local.solve(b_2m); }));
  t.local_bytes = local.storage_bytes();
  return t;
}

void probe_la(Tracer* tr, Metrics& out) {
  std::uint64_t state = 0x1a;
  struct GemmShape {
    const char* tag;
    la::index_t m, n, k;
  };
  for (const GemmShape g : {GemmShape{"m8r16", 8, 16, 8}, GemmShape{"m16", 16, 16, 16}}) {
    const la::Matrix a = random_matrix(g.m, g.k, 1.0, state);
    const la::Matrix b = random_matrix(g.k, g.n, 1.0, state);
    la::Matrix c(g.m, g.n);
    const std::string tag = g.tag;
    const double t = median(time_calls(tr, "la.gemm." + tag, [&] {
      la::gemm(1.0, a.view(), b.view(), 0.0, c.view());
    }));
    out["la.gemm_us." + tag] = {t * 1e6, "us"};
    out["la.gflops.gemm_" + tag] = {la::gemm_flops(g.m, g.n, g.k) / t / 1e9, "GFLOP/s"};
  }
  for (const la::index_t m : {la::index_t{8}, la::index_t{16}}) {
    la::Matrix a = random_matrix(m, m, 1.0, state);
    for (la::index_t i = 0; i < m; ++i) a(i, i) += static_cast<double>(m);
    const std::string tag = m == 8 ? "m8" : "m16";
    const double t = median(time_calls(
        tr, "la.lu_factor." + tag, [&] { (void)la::lu_factor(std::as_const(a).view()); }));
    out["la.lu_factor_us." + tag] = {t * 1e6, "us"};
    out["la.gflops.lu_" + tag] = {la::lu_factor_flops(m) / t / 1e9, "GFLOP/s"};
  }
}

/// Two-port merges at M = 8 and 16 and the vector merge at M = 8, R = 16,
/// inside a one-rank engine run (the merges charge flops to a Comm).
void probe_merges(Tracer* tr, Metrics& out) {
  ScopedSpan run_span(tr, "mpsim::run");
  const std::uint64_t parent = run_span.id();
  mpsim::run(1, [&](mpsim::Comm& comm) {
    std::uint64_t state = 0x2b;
    auto two_port = [&](la::index_t m) {
      const double s = 0.5 / static_cast<double>(m);  // keeps the interface system near I
      return core::TwoPort{random_matrix(m, m, s, state), random_matrix(m, m, s, state),
                           random_matrix(m, m, s, state), random_matrix(m, m, s, state),
                           random_matrix(m, m, s, state), random_matrix(m, m, s, state)};
    };
    for (const la::index_t m : {la::index_t{8}, la::index_t{16}}) {
      const core::TwoPort left = two_port(m), right = two_port(m);
      core::TwoPortCache cache;
      const double t = median(time_calls(tr, "core.merge_twoport.m" + std::to_string(m), [&] {
        (void)core::merge_twoport(left, right, cache, comm);
      }, parent, 1));
      out["core.merge_us.m" + std::to_string(m)] = {t * 1e6, "us"};
      if (m != 8) continue;
      const core::TwoPortVec lv{random_matrix(m, 16, 1.0, state), random_matrix(m, 16, 1.0, state)};
      const core::TwoPortVec rv{random_matrix(m, 16, 1.0, state), random_matrix(m, 16, 1.0, state)};
      const double tv = median(time_calls(tr, "core.merge_twoport_vec.m8r16", [&] {
        (void)core::merge_twoport_vec(cache, lv, rv, comm);
      }, parent, 1));
      out["core.merge_vec_us.m8r16"] = {tv * 1e6, "us"};
    }
  }, session_config().engine);
}

void probe_empty_runs(Tracer* tr, Metrics& out) {
  const mpsim::EngineOptions engine = session_config().engine;
  for (const int p : {1, kRanks}) {
    const double t = median(time_calls(tr, "mpsim::run[empty,p" + std::to_string(p) + "]", [&] {
      mpsim::run(p, [](mpsim::Comm&) {}, engine);
    }));
    out["mpsim.empty_run_us.p" + std::to_string(p)] = {t * 1e6, "us"};
  }
}

/// Session::solve of `b` on a factored session, checked against the
/// direct run's answer.
SessionCall session_solve(Tracer* tr, core::Session& session, const la::Matrix& b,
                          const DirectArd& direct, WorkloadResult& res) {
  return [tr, &session, &b, &direct, &res] {
    la::Matrix x;
    const double t0 = now_s();
    {
      ScopedSpan span(tr, "core.Session::solve");
      x = session.solve(b);
    }
    const double dt = now_s() - t0;
    ++res.attempted;
    if (!(rel_error(x, direct.x()) <= kTolerance)) {
      res.fail("probe: Session::solve and the direct ARD run disagree");
    }
    return dt;
  };
}

/// Session construction + factor + destruction: the part of a refactor
/// step besides its solve.
SessionCall session_factor(Tracer* tr, const btds::BlockTridiag& sys) {
  return [tr, &sys] {
    const double t0 = now_s();
    {
      ScopedSpan span(tr, "core.Session::factor");
      core::Session session(core::Method::kArd, sys, kRanks, session_config());
      session.factor();
    }
    return now_s() - t0;
  };
}

}  // namespace

void probe_layers(const std::string& workload, const RunOptions& opts, WorkloadResult& main,
                  Metrics& out) {
  Tracer* tr = opts.tracer;
  probe_la(tr, out);
  probe_merges(tr, out);
  probe_empty_runs(tr, out);

  // The service layer's numbers: from the workload itself, or from a short
  // run of the service load inside the other workloads' traced runs.
  WorkloadResult svc_own;
  const bool is_service = workload == "service";
  if (!is_service) {
    svc_own = run_service({opts.seed, 1.0, tr});
    main.attempted += svc_own.attempted;
    main.failed += svc_own.failed;
    main.notes.insert(main.notes.end(), svc_own.notes.begin(), svc_own.notes.end());
    for (const auto& [name, metric] : svc_own.layer) out[name] = metric;
  }
  const WorkloadResult& svc = is_service ? main : svc_own;

  // The operation's own shape: system, right-hand side, direct runs.
  const Shape sh = main.shape;
  const btds::BlockTridiag sys = btds::make_problem(btds::ProblemKind::kDiagDominant, sh.n, sh.m,
                                                    mix_seed(opts.seed, 400));
  const la::Matrix b = btds::make_rhs(sh.n, sh.m, sh.r, mix_seed(opts.seed, 401));
  const ThomasTimes th = probe_thomas(tr, sys, b, opts.seed);
  const bool refactor = workload == "refactor";
  DirectArd direct(tr, sys, b);
  const PhaseRuns fac = direct.factor(refactor ? session_factor(tr, sys) : nullptr);
  core::Session session(core::Method::kArd, sys, kRanks, session_config());
  session.factor();
  const PhaseRuns sol = direct.solve(session_solve(tr, session, b, direct, main));
  const double session_solve_s = sol.session_s;
  const double direct_solve_s = sol.wall_s;

  // Self times along the blocking path of one operation (file comment).
  const double btds_solve = 2.0 * th.local_solve_s;
  const double btds_factor = 2.0 * th.local_factor_s + th.local_solve_2m_s;
  double session_self = session_solve_s - direct_solve_s;
  double mpsim_self = sol.wall_s - sol.window_s;
  double core_self = sol.window_s - btds_solve;
  double btds_self = btds_solve;
  double service_self = 0.0;
  if (refactor) {
    session_self += fac.session_s - fac.wall_s;
    mpsim_self += fac.wall_s - fac.window_s;
    core_self += fac.window_s - btds_factor;
    btds_self += btds_factor;
  }
  const double svc_hit_s = svc.layer.at("service.hit_batch_ms").value * 1e-3;
  if (is_service) service_self = svc_hit_s - session_solve_s;
  // A service batch's blocking path is that of a hit batch.
  const double path_e2e_s = is_service ? svc_hit_s : median(main.op_s);
  const double path_sum = service_self + session_self + mpsim_self + core_self + btds_self;

  // Service self time at the service shape (measured above when the
  // workload is the service; probed here otherwise).
  if (is_service) {
    out["service.self_us"] = {service_self * 1e6, "us"};
  } else {
    const Shape ss = svc.shape;
    const btds::BlockTridiag ssys = btds::make_problem(btds::ProblemKind::kDiagDominant, ss.n,
                                                       ss.m, mix_seed(opts.seed, 500));
    const la::Matrix sb = btds::make_rhs(ss.n, ss.m, ss.r, mix_seed(opts.seed, 501));
    DirectArd sdirect(tr, ssys, sb);
    (void)sdirect.factor();
    core::Session ssession(core::Method::kArd, ssys, kRanks, session_config());
    ssession.factor();
    const double s_solve = sdirect.solve(session_solve(tr, ssession, sb, sdirect, main)).session_s;
    out["service.self_us"] = {(svc_hit_s - s_solve) * 1e6, "us"};
  }

  // btds
  const double solve_bytes =
      2.0 * kRanks * static_cast<double>(th.local_bytes) +
      2.0 * static_cast<double>(sh.n * sh.m * sh.r) * sizeof(double);
  out["btds.thomas_factor_ms"] = {th.factor_s * 1e3, "ms"};
  out["btds.thomas_solve_ms"] = {th.solve_s * 1e3, "ms"};
  out["btds.local_factor_ms"] = {th.local_factor_s * 1e3, "ms"};
  out["btds.local_solve_ms"] = {th.local_solve_s * 1e3, "ms"};
  out["btds.solve_bytes"] = {solve_bytes, "B"};
  out["btds.solve_gbps"] = {solve_bytes / sol.slowest_s / 1e9, "GB/s"};
  const double serial = refactor ? th.factor_s + th.solve_s : th.solve_s;
  out["btds.vs_thomas"] = {serial / path_e2e_s, "x"};

  // core
  out["core.ard_factor_ms"] = {fac.slowest_s * 1e3, "ms"};
  out["core.ard_solve_ms"] = {sol.slowest_s * 1e3, "ms"};
  out["core.rank_skew"] = {refactor ? fac.skew : sol.skew, "x"};
  out["core.session_us"] = {(session_solve_s - direct_solve_s) * 1e6, "us"};

  // mpsim
  const mpsim::RankStats ft = fac.report.totals();
  const mpsim::RankStats st = sol.report.totals();
  double runs = 1.0, msgs = static_cast<double>(st.msgs_sent),
         bytes = static_cast<double>(st.bytes_sent);
  const mpsim::RankStats& dom = refactor ? ft : st;
  if (refactor) {
    runs = 2.0;
    msgs += static_cast<double>(ft.msgs_sent);
    bytes += static_cast<double>(ft.bytes_sent);
  } else if (is_service) {
    const double batches = out.at("service.batches").value;
    const double miss_share = out.at("service.misses").value / batches;
    runs += miss_share;
    msgs += miss_share * static_cast<double>(ft.msgs_sent);
    bytes += miss_share * static_cast<double>(ft.bytes_sent);
  }
  out["mpsim.run_overhead_us"] = {(sol.wall_s - sol.window_s) * 1e6, "us"};
  out["mpsim.runs"] = {runs, "count"};
  out["mpsim.msgs"] = {msgs, "count"};
  out["mpsim.bytes"] = {bytes, "B"};
  out["mpsim.wait_frac"] = {dom.virtual_time > 0.0 ? dom.virtual_wait / dom.virtual_time : 0.0,
                            "ratio"};
  out["mpsim.model_ms"] = {main.model_s * 1e3, "ms"};
  out["mpsim.fidelity"] = {median(main.op_s) / main.model_s, "x"};

  // The blocking path of one operation.
  out["path.session_ms"] = {session_self * 1e3, "ms"};
  out["path.mpsim_ms"] = {mpsim_self * 1e3, "ms"};
  out["path.core_ms"] = {core_self * 1e3, "ms"};
  out["path.btds_ms"] = {btds_self * 1e3, "ms"};
  out["path.sum_ms"] = {path_sum * 1e3, "ms"};
  out["path.e2e_ms"] = {path_e2e_s * 1e3, "ms"};
  out["path.coverage"] = {path_sum / path_e2e_s, "ratio"};
}

}  // namespace perfbench
