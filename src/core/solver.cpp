#include "src/core/solver.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/btds/spmv.hpp"
#include "src/core/rd.hpp"
#include "src/core/refine.hpp"
#include "src/mpsim/obs_bridge.hpp"
#include "src/obs/live/postmortem.hpp"
#include "src/obs/metrics.hpp"

namespace ardbt::core {

namespace {
/// A breakdown-flagged solve whose refined residual still exceeds this is
/// escalated to the banded-LU fallback under BreakdownPolicy::kFallback.
constexpr double kFallbackResidualTol = 1e-10;
}  // namespace

std::string_view to_string(Method method) {
  switch (method) {
    case Method::kRdBatched:
      return "rd";
    case Method::kRdPerRhs:
      return "rd-per-rhs";
    case Method::kArd:
      return "ard";
    case Method::kPcr:
      return "pcr";
  }
  return "unknown";
}

namespace {
/// Preconditions checked before any member construction (RowPartition
/// asserts on malformed input, so validation cannot wait for the body).
std::shared_ptr<const btds::BlockTridiag> checked_system(
    std::shared_ptr<const btds::BlockTridiag> sys, int nranks) {
  if (sys == nullptr) {
    throw fault::InvalidArgumentError("core::Session", "system must not be null");
  }
  btds::require_rows(*sys, 0, sys->num_blocks(), "core::Session");
  if (nranks <= 0) {
    throw fault::InvalidArgumentError("core::Session", "nranks must be positive");
  }
  // Every method partitions whole block rows and needs one per rank; fail
  // here rather than from inside each rank of the first engine run.
  if (sys->num_blocks() < nranks) {
    throw fault::InvalidArgumentError(
        "core::Session", "every rank needs at least one block row (N=" +
                             std::to_string(sys->num_blocks()) + " < P=" +
                             std::to_string(nranks) + ")");
  }
  return sys;
}

/// Non-owning alias: shares no control block, so the Session borrows
/// exactly as the reference constructors document.
std::shared_ptr<const btds::BlockTridiag> borrow(const btds::BlockTridiag& sys) {
  return std::shared_ptr<const btds::BlockTridiag>(std::shared_ptr<const btds::BlockTridiag>(),
                                                   &sys);
}
}  // namespace

Session::Session(Method method, std::shared_ptr<const btds::BlockTridiag> sys, int nranks,
                 SessionConfig config)
    : method_(method),
      sys_(checked_system(std::move(sys), nranks)),
      nranks_(nranks),
      opts_(config.ard),
      engine_(config.engine),
      part_(sys_->num_blocks(), nranks) {
  if (config.telemetry.any()) set_telemetry(config.telemetry);
}

Session::Session(Method method, const btds::BlockTridiag& sys, int nranks, SessionConfig config)
    : Session(method, borrow(sys), nranks, std::move(config)) {}

void Session::fold_report(const mpsim::RunReport& run) {
  if (!have_report_) {
    report_ = run;
    have_report_ = true;
    return;
  }
  assert(run.ranks.size() == report_.ranks.size());
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    mpsim::RankStats& acc = report_.ranks[r];
    const mpsim::RankStats& s = run.ranks[r];
    acc.msgs_sent += s.msgs_sent;
    acc.bytes_sent += s.bytes_sent;
    acc.msgs_received += s.msgs_received;
    acc.bytes_received += s.bytes_received;
    acc.flops_charged += s.flops_charged;
    acc.cpu_seconds += s.cpu_seconds;
    // Each run's clock starts at the session's cursor, so the latest
    // final value IS the cumulative session time; waits restart at zero
    // per run and therefore sum.
    acc.virtual_time = s.virtual_time;
    acc.virtual_wait += s.virtual_wait;
  }
  report_.wall_seconds += run.wall_seconds;
}

void Session::set_telemetry(const obs::live::Telemetry& telemetry) {
  telemetry_ = telemetry;
  // The engine wires per-rank recorder channels exactly like tracer
  // buffers; a null/disabled recorder keeps every tap one pointer test.
  engine_.recorder = telemetry_.recorder;
}

void Session::after_run(const char* phase, const mpsim::RunReport& run, double t0) {
  if (telemetry_.recorder != nullptr && telemetry_.recorder->enabled()) {
    obs::live::RecorderChannel& driver = telemetry_.recorder->driver();
    driver.record_span(phase, vtime_cursor_, vtime_cursor_ - t0);
    const mpsim::RankStats totals = run.totals();
    driver.record_metric("mpsim.msgs_sent", vtime_cursor_, static_cast<double>(totals.msgs_sent));
    driver.record_metric("mpsim.bytes_sent", vtime_cursor_,
                         static_cast<double>(totals.bytes_sent));
    driver.record_metric("mpsim.flops_charged", vtime_cursor_, totals.flops_charged);
    if (totals.deadline_misses > 0) {
      driver.record_metric("mpsim.deadline_misses", vtime_cursor_,
                           static_cast<double>(totals.deadline_misses));
    }
  }
  if (telemetry_.metrics != nullptr) {
    // Per-run deltas accumulate counters correctly; gauges land on the
    // latest value — exactly what the snapshot stream should show.
    mpsim::export_metrics(run, *telemetry_.metrics);
    export_arena_metrics(*telemetry_.metrics);
    if (telemetry_.recorder != nullptr) {
      mpsim::export_metrics(*telemetry_.recorder, *telemetry_.metrics);
    }
  }
  if (telemetry_.watchdogs != nullptr) {
    std::vector<obs::live::RankSample> samples;
    samples.reserve(run.ranks.size());
    for (std::size_t r = 0; r < run.ranks.size(); ++r) {
      const mpsim::RankStats& s = run.ranks[r];
      obs::live::RankSample sample;
      sample.rank = static_cast<int>(r);
      sample.virtual_time = s.virtual_time - t0;  // this run's share, not the session total
      sample.virtual_wait = s.virtual_wait;
      sample.deadline_misses = s.deadline_misses;
      samples.push_back(sample);
    }
    telemetry_.watchdogs->check_ranks(samples, vtime_cursor_);
    // Steady-state arena contract: after the first solve of a shape,
    // further solves must recycle every scratch matrix. Fresh slab
    // allocations past warmup are a leak-shaped signal.
    std::uint64_t arena_allocs = 0;
    for (const la::Workspace& w : ws_) {
      arena_allocs += static_cast<std::uint64_t>(w.stats().slab_allocs);
    }
    if (std::string_view(phase) == "driver.solve") {
      if (arena_warm_ && arena_allocs > arena_allocs_prev_) {
        telemetry_.watchdogs->check_arena_growth("session", arena_allocs - arena_allocs_prev_,
                                                 vtime_cursor_);
      }
      arena_warm_ = true;
    }
    arena_allocs_prev_ = arena_allocs;
  }
  if (telemetry_.snapshotter != nullptr) telemetry_.snapshotter->tick(vtime_cursor_);
}

void Session::log_outcome(const SolveOutcome& outcome) {
  if (telemetry_.log == nullptr) return;
  obs::Json fields = obs::Json::object();
  fields.set("action", outcome.action);
  fields.set("status", std::string(fault::to_string(outcome.status.code())));
  if (outcome.retries > 0) fields.set("retries", outcome.retries);
  if (outcome.refine_steps > 0) fields.set("refine_steps", outcome.refine_steps);
  if (outcome.residual >= 0.0) fields.set("residual", outcome.residual);
  if (outcome.pivot_growth > 0.0) fields.set("pivot_growth", outcome.pivot_growth);
  const std::string site = "session." + outcome.phase;
  const std::string msg = outcome.action == "ok"
                              ? outcome.phase + " completed"
                              : outcome.phase + " took ladder rung '" + outcome.action + "'" +
                                    (outcome.detail.empty() ? "" : ": " + outcome.detail);
  if (outcome.action == "ok") {
    telemetry_.log->info(site, msg, vtime_cursor_, std::move(fields));
  } else {
    telemetry_.log->warn(site, msg, vtime_cursor_, std::move(fields));
  }
}

void Session::record_outcome(SolveOutcome outcome) {
  log_outcome(outcome);
  const bool untroubled_solve = outcome.phase == "solve" && outcome.action == "ok" &&
                                outcome.retries == 0 && outcome.residual < 0.0;
  if (!untroubled_solve) outcomes_.push_back(outcome);
  last_outcome_ = std::move(outcome);
}

void Session::dump_postmortem(const char* phase, fault::ErrorCode code,
                              const std::string& message) {
  const std::string_view reason = fault::to_string(code);
  if (telemetry_.recorder != nullptr) {
    telemetry_.recorder->note_anomaly(code == fault::ErrorCode::kBreakdown ? "breakdown" : "error",
                                      vtime_cursor_, message);
  }
  if (telemetry_.log != nullptr) {
    obs::Json fields = obs::Json::object();
    fields.set("reason", std::string(reason));
    fields.set("phase", phase);
    if (!telemetry_.postmortem_path.empty()) fields.set("path", telemetry_.postmortem_path);
    telemetry_.log->error("session.postmortem", message, vtime_cursor_, std::move(fields));
  }
  if (telemetry_.postmortem_path.empty()) return;
  obs::live::PostmortemInfo info;
  info.reason = std::string(reason);
  info.phase = phase;
  info.message = message;
  info.vtime_s = vtime_cursor_;
  obs::Json extra = obs::Json::object();
  extra.set("method", std::string(to_string(method_)));
  extra.set("nranks", nranks_);
  extra.set("degraded", degraded_);
  extra.set("breakdown", breakdown_);
  extra.set("pivot_growth", pivot_growth_);
  if (have_report_) {
    const mpsim::RankStats totals = report_.totals();
    obs::Json faults = obs::Json::object();
    faults.set("faults_injected", totals.faults_injected);
    faults.set("faults_detected", totals.faults_detected);
    faults.set("deadline_misses", totals.deadline_misses);
    extra.set("fault_counters", std::move(faults));
  }
  obs::Json ladder = obs::Json::array();
  for (const SolveOutcome& o : outcomes_) {
    obs::Json oj = obs::Json::object();
    oj.set("phase", o.phase);
    oj.set("action", o.action);
    oj.set("status", std::string(fault::to_string(o.status.code())));
    if (o.retries > 0) oj.set("retries", o.retries);
    if (o.residual >= 0.0) oj.set("residual", o.residual);
    ladder.push(std::move(oj));
  }
  extra.set("ladder", std::move(ladder));
  obs::live::write_postmortem(telemetry_.postmortem_path, info, telemetry_.recorder,
                              telemetry_.metrics, std::move(extra));
}

double Session::run_engine(const char* phase, const mpsim::RankFn& fn) {
  // Transient faults (corrupted message, injected crash, missed deadline)
  // are retried as whole engine runs: the FaultPlan's one-shot specs stay
  // fired, so the retry sees a clean wire. Failed attempts never advance
  // the session timeline or its counters — only the successful run is
  // charged (vtime_cursor_/fold_report move on success alone).
  //
  // The phase time is the run's largest final rank clock minus its
  // origin: every rank starts at the origin and the engine folds trailing
  // compute into each clock, so no rank needs to time itself.
  last_retries_ = 0;
  const double t0 = vtime_cursor_;
  for (;;) {
    engine_.vtime_origin = vtime_cursor_;
    try {
      mpsim::RunReport run = mpsim::run(nranks_, fn, engine_);
      vtime_cursor_ = run.max_virtual_time();
      fold_report(run);
      after_run(phase, run, t0);
      return vtime_cursor_ - t0;
    } catch (const fault::SolveError& e) {
      const bool retryable = engine_.on_breakdown != fault::BreakdownPolicy::kFailFast &&
                             fault::is_transient(e.status()) &&
                             last_retries_ < engine_.max_fault_retries;
      if (!retryable) {
        dump_postmortem(phase, e.code(), e.what());
        throw;
      }
      ++last_retries_;
      if (telemetry_.log != nullptr) {
        obs::Json fields = obs::Json::object();
        fields.set("status", std::string(fault::to_string(e.code())));
        fields.set("attempt", last_retries_);
        telemetry_.log->warn("session.retry",
                             std::string("transient fault, re-running engine: ") + e.what(),
                             vtime_cursor_, std::move(fields));
      }
    }
  }
}

void Session::ensure_fallback() {
  if (fallback_) return;
  const la::index_t n = sys_->num_blocks();
  const la::index_t m = sys_->block_size();
  factor_vtime_ += run_engine("driver.fallback_factor", [&](mpsim::Comm& comm) {
    auto span = comm.trace_scope(obs::SpanKind::kPhase, "driver.fallback_factor");
    if (comm.rank() == 0) {
      fallback_ = std::make_unique<btds::BandedLuFactorization>(
          btds::BandedLuFactorization::factor(*sys_));
      comm.charge_flops(btds::BandedLuFactorization::factor_flops(n, m));
    }
  });
  if (fallback_->storage_bytes() > storage_bytes_) storage_bytes_ = fallback_->storage_bytes();
}

double Session::fallback_solve(const la::Matrix& b, la::Matrix& x) {
  assert(fallback_ != nullptr);
  return run_engine("driver.fallback_solve", [&](mpsim::Comm& comm) {
    auto span = comm.trace_scope(obs::SpanKind::kPhase, "driver.fallback_solve");
    if (comm.rank() == 0) {
      la::copy(fallback_->solve(b).view(), x.view());
      comm.charge_flops(btds::BandedLuFactorization::solve_flops(sys_->num_blocks(),
                                                                 sys_->block_size(), b.cols()));
    }
  });
}

void Session::factor() {
  if (factored_) return;
  switch (method_) {
    case Method::kRdBatched:
    case Method::kRdPerRhs:
      // Classic RD has no right-hand-side-independent phase to hoist;
      // every solve runs the full pass.
      factored_ = true;
      return;
    case Method::kArd:
      ard_.resize(static_cast<std::size_t>(nranks_));
      ws_.resize(static_cast<std::size_t>(nranks_));
      break;
    case Method::kPcr:
      pcr_.resize(static_cast<std::size_t>(nranks_));
      break;
  }
  const fault::BreakdownPolicy policy = engine_.on_breakdown;
  double vtime = 0.0;
  std::vector<double> growths(static_cast<std::size_t>(nranks_), 0.0);
  try {
    vtime = run_engine("driver.factor", [&](mpsim::Comm& comm) {
      auto span = comm.trace_scope(obs::SpanKind::kPhase, "driver.factor");
      const std::size_t r = static_cast<std::size_t>(comm.rank());
      switch (method_) {
        case Method::kArd:
          ard_[r] = ArdFactorization::factor(comm, *sys_, part_, opts_, &ws_[r]);
          growths[r] = ard_[r].diagnostics().growth();
          break;
        case Method::kPcr:
          pcr_[r] = PcrFactorization::factor(comm, *sys_, part_);
          growths[r] = pcr_[r].pivot_diagnostics().growth();
          break;
        default:
          break;
      }
    });
  } catch (const fault::SingularPivotError& e) {
    // A singular block pivot breaks every block-pivot method; the exact
    // banded fallback pivots across the whole band and survives whenever
    // the global matrix is invertible.
    SolveOutcome outcome{.phase = "factor", .status = e.status(), .retries = last_retries_};
    if (policy == fault::BreakdownPolicy::kFailFast) {
      outcome.action = "failfast";
      record_outcome(std::move(outcome));
      throw;
    }
    ensure_fallback();
    degraded_ = true;
    outcome.action = "fallback";
    outcome.detail = "banded-LU fallback factored; session degraded to the exact path";
    record_outcome(std::move(outcome));
    factored_ = true;
    return;
  }
  ws_after_factor_.clear();
  for (const la::Workspace& w : ws_) ws_after_factor_.push_back(w.stats());
  pivot_growth_ = *std::max_element(growths.begin(), growths.end());
  SolveOutcome outcome{.phase = "factor",
                       .retries = last_retries_,
                       .pivot_growth = pivot_growth_};
  if (pivot_growth_ > opts_.breakdown_growth_threshold) {
    const std::string message = "pivot growth " + std::to_string(pivot_growth_) +
                                " exceeds breakdown threshold " +
                                std::to_string(opts_.breakdown_growth_threshold);
    if (policy == fault::BreakdownPolicy::kFailFast) {
      outcome.status = fault::Status::error(fault::ErrorCode::kBreakdown, message);
      outcome.action = "failfast";
      record_outcome(std::move(outcome));
      dump_postmortem("driver.factor", fault::ErrorCode::kBreakdown, message);
      throw fault::BreakdownError("core::Session::factor", pivot_growth_,
                                  opts_.breakdown_growth_threshold);
    }
    breakdown_ = true;
    outcome.status = fault::Status::error(fault::ErrorCode::kBreakdown, message);
    outcome.action = policy == fault::BreakdownPolicy::kRefine ? "refine" : "fallback";
    outcome.detail = "breakdown flagged; solves take the recovery rung";
    dump_postmortem("driver.factor", fault::ErrorCode::kBreakdown, message);
  }
  record_outcome(std::move(outcome));
  factor_vtime_ = vtime;
  // The largest rank's, not rank 0's: ranks differ in spikes (the end
  // ranks hold one each) and in scan caches.
  for (const ArdFactorization& f : ard_) {
    storage_bytes_ = std::max(storage_bytes_, f.storage_bytes());
  }
  for (const PcrFactorization& f : pcr_) {
    storage_bytes_ = std::max(storage_bytes_, f.storage_bytes());
  }
  factored_ = true;
}

la::Workspace::Stats Session::arena_stats(int r) const {
  const auto idx = static_cast<std::size_t>(r);
  return idx < ws_.size() ? ws_[idx].stats() : la::Workspace::Stats{};
}

la::Workspace::Stats Session::arena_stats_after_factor(int r) const {
  const auto idx = static_cast<std::size_t>(r);
  return idx < ws_after_factor_.size() ? ws_after_factor_[idx] : la::Workspace::Stats{};
}

void Session::export_arena_metrics(obs::MetricsRegistry& reg) const {
  if (ws_.empty()) return;
  double factor_hw = 0.0, hw = 0.0, slab_bytes = 0.0, factor_slabs = 0.0, slabs = 0.0;
  for (std::size_t r = 0; r < ws_.size(); ++r) {
    const la::Workspace::Stats now = ws_[r].stats();
    const la::Workspace::Stats after = arena_stats_after_factor(static_cast<int>(r));
    const std::string prefix = "arena.rank." + std::to_string(r) + ".";
    reg.gauge(prefix + "high_water_bytes").set(static_cast<double>(now.high_water_bytes));
    reg.gauge(prefix + "slab_bytes").set(static_cast<double>(now.slab_bytes));
    reg.gauge(prefix + "slab_allocs").set(static_cast<double>(now.slab_allocs));
    reg.gauge(prefix + "solve_slab_allocs")
        .set(static_cast<double>(now.slab_allocs - after.slab_allocs));
    factor_hw = std::max(factor_hw, static_cast<double>(after.high_water_bytes));
    hw = std::max(hw, static_cast<double>(now.high_water_bytes));
    slab_bytes += static_cast<double>(now.slab_bytes);
    factor_slabs += static_cast<double>(after.slab_allocs);
    slabs += static_cast<double>(now.slab_allocs);
  }
  reg.gauge("arena.factor.high_water_bytes").set(factor_hw);
  reg.gauge("arena.factor.slab_allocs").set(factor_slabs);
  reg.gauge("arena.high_water_bytes").set(hw);
  reg.gauge("arena.slab_bytes").set(slab_bytes);
  reg.gauge("arena.slab_allocs").set(slabs);
  reg.gauge("arena.solve.slab_allocs").set(slabs - factor_slabs);
}

void Session::export_latency_metrics(obs::MetricsRegistry& reg) const {
  if (factor_vtime_ > 0.0) reg.latency("latency.session.factor_s").observe(factor_vtime_);
  if (!solve_vtimes_.empty()) {
    obs::LatencyHistogram& h = reg.latency("latency.session.solve_s");
    for (double s : solve_vtimes_) h.observe(s);
  }
}

la::Matrix Session::solve(const la::Matrix& b) {
  la::Matrix x = la::Matrix::uninitialized(b.rows(), b.cols());
  solve(b, x);
  return x;
}

void Session::solve(const la::Matrix& b, la::Matrix& x) {
  btds::require_rhs(sys_->dim(), b, x, "core::Session::solve");
  factor();
  const fault::BreakdownPolicy policy = engine_.on_breakdown;

  // Breakdown on a method without a refinement rung (refinement corrects
  // through an ArdFactorization) escalates straight to the exact path.
  if (!degraded_ && breakdown_ && method_ != Method::kArd &&
      policy != fault::BreakdownPolicy::kFailFast) {
    ensure_fallback();
    degraded_ = true;
  }
  if (degraded_) {
    solve_vtimes_.push_back(fallback_solve(b, x));
    SolveOutcome outcome{.phase = "solve",
                         .action = "fallback",
                         .retries = last_retries_,
                         .residual = btds::relative_residual(*sys_, x, b),
                         .pivot_growth = pivot_growth_};
    record_outcome(std::move(outcome));
    return;
  }

  // Ladder rung 2: a breakdown-flagged ARD factorization is kept, but
  // every solve adds iterative refinement (each step one residual apply
  // plus one cheap ARD solve) to recover the lost accuracy.
  const bool refine_path =
      breakdown_ && method_ == Method::kArd && policy != fault::BreakdownPolicy::kFailFast;
  int refine_steps = 0;
  double vtime = run_engine("driver.solve", [&](mpsim::Comm& comm) {
    auto span = comm.trace_scope(obs::SpanKind::kPhase, "driver.solve");
    const std::size_t r = static_cast<std::size_t>(comm.rank());
    if (refine_path) {
      const la::index_t m = sys_->block_size();
      const la::index_t lo = part_.begin(comm.rank()) * m;
      const la::index_t rows = part_.count(comm.rank()) * m;
      const RefineResult rr = solve_refined(comm, ard_[r], *sys_, part_,
                                            b.block(lo, 0, rows, b.cols()),
                                            x.block(lo, 0, rows, x.cols()));
      if (comm.rank() == 0) refine_steps = rr.steps;
    } else {
      switch (method_) {
        case Method::kRdBatched:
          rd_solve(comm, *sys_, part_, b, x, opts_);
          break;
        case Method::kRdPerRhs:
          rd_solve_per_rhs(comm, *sys_, part_, b, x, opts_);
          break;
        case Method::kArd:
          ard_[r].solve(comm, b, x);
          break;
        case Method::kPcr:
          pcr_[r].solve(comm, b, x);
          break;
      }
    }
  });

  SolveOutcome outcome{.phase = "solve",
                       .action = refine_path ? "refine" : "ok",
                       .retries = last_retries_,
                       .refine_steps = refine_steps,
                       .pivot_growth = pivot_growth_};
  if (refine_path) {
    outcome.residual = btds::relative_residual(*sys_, x, b);
    if (policy == fault::BreakdownPolicy::kFallback &&
        outcome.residual > kFallbackResidualTol) {
      // Ladder rung 3: refinement did not converge — redo this batch (and
      // route every later one) through the exact banded path.
      const std::string message = "refined residual " + std::to_string(outcome.residual) +
                                  " above fallback tolerance";
      outcome.status = fault::Status::error(fault::ErrorCode::kBreakdown, message);
      dump_postmortem("driver.solve", fault::ErrorCode::kBreakdown, message);
      ensure_fallback();
      degraded_ = true;
      vtime += fallback_solve(b, x);
      outcome.action = "fallback";
      outcome.retries += last_retries_;
      outcome.residual = btds::relative_residual(*sys_, x, b);
    }
  }
  solve_vtimes_.push_back(vtime);
  record_outcome(std::move(outcome));
}

DriverResult solve(Method method, const btds::BlockTridiag& sys, const la::Matrix& b, int nranks,
                   const SessionConfig& config) {
  Session session(method, sys, nranks, config);
  session.factor();
  DriverResult result;
  result.x = session.solve(b);
  result.report = session.report();
  result.factor_vtime = session.factor_vtime();
  result.solve_vtime = session.solve_vtimes().back();
  result.outcomes = session.outcomes();
  return result;
}

SessionResult ard_session(const btds::BlockTridiag& sys,
                          const std::vector<const la::Matrix*>& batches, int nranks,
                          const SessionConfig& config) {
  for (const la::Matrix* batch : batches) {
    if (batch == nullptr) {
      throw fault::InvalidArgumentError("core::ard_session", "null batch pointer");
    }
  }
  Session session(Method::kArd, sys, nranks, config);
  session.factor();
  SessionResult result;
  result.x.reserve(batches.size());
  for (const la::Matrix* batch : batches) result.x.push_back(session.solve(*batch));
  result.report = session.report();
  result.factor_vtime = session.factor_vtime();
  result.solve_vtimes = session.solve_vtimes();
  result.storage_bytes = session.storage_bytes();
  return result;
}

}  // namespace ardbt::core
