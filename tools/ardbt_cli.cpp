// ardbt — command-line driver for the solver library.
//
// Runs any solver on a generated problem and reports timing, work and
// accuracy. Examples:
//
//   ardbt --method ard --kind poisson2d --n 2048 --m 16 --p 8 --r 64
//   ardbt --method rd-per-rhs --n 512 --m 8 --r 32 --timing measured
//   ardbt --method ard --n 512 --m 8 --p 4 --r 32 --trace ard.trace.json --json run.json
//   ardbt --list
//
// Flags (all optional):
//   --method  ard | rd | rd-per-rhs | pcr                   [ard]
//   --kind    diagdom | poisson2d | convdiff | toeplitz | illcond [diagdom]
//   --n / --m / --p / --r   problem shape                   [1024/8/4/16]
//   --seed    generator seed                                [42]
//   --timing  charged (deterministic virtual clock) | measured [charged]
//   --threads worker threads per rank for the solve kernels [1]
//   --chunk   RHS columns per pipelined solve panel, 0 = all of R (ard only) [0]
//   --refine  extra iterative-refinement steps (ard only)   [0]
//   --load-sys PATH   solve a system saved with save_block_tridiag
//                     (overrides --kind/--n/--m)
//   --save-sys PATH   save the generated system
//   --save-x PATH     save the solution (binary; .csv suffix -> CSV)
//   --trace PATH      write a Chrome/Perfetto trace of the run: one track
//                     per simulated rank with send/recv/wait/compute and
//                     phase spans on the virtual clock (docs/OBSERVABILITY.md)
//   --json PATH       write the machine-readable run report
//                     (schema ardbt.run_report v2: timing, attribution
//                     with critical path, cost-model verdicts, metrics)
//   --metrics         print a deterministic metrics/percentile snapshot to
//                     stdout (virtual-clock values only; no trace file)
//   --live-out PATH   stream live telemetry as JSONL while the run executes:
//                     structured log records (ardbt.log v1) and periodic
//                     metric snapshots (ardbt.metrics_snapshot v1) on the
//                     virtual clock; bit-stable under charged timing
//   --live-period S   virtual seconds between metric snapshots (default 0
//                     = one per engine run)
//   --postmortem PATH write an ardbt.postmortem v1 bundle (recent recorder
//                     events, metric snapshot, fault counters, ladder log)
//                     when the solve fails or breakdown is detected
//   --on-breakdown M  failfast | refine | fallback — what the driver does
//                     when a breakdown or recoverable fault is detected
//                     (docs/ROBUSTNESS.md)
//   --fault KIND      inject one deterministic fault: delay | dup | flip |
//                     straggle | crash (repeatable; targets derived from
//                     the flag's position so runs replay exactly)
//   --plant-pivot I   overwrite diagonal block I with an (near-)singular
//                     pivot before solving (see --plant-eps)
//   --plant-eps E     smallest pivot magnitude planted by --plant-pivot
//                     (default 0 = exactly singular)
//   --serve           run the solver-as-a-service scenario instead of one
//                     solve: a FactorCache + batching Server replays a
//                     deterministic client load on the virtual clock and
//                     prints latency/throughput/cache statistics
//                     (docs/SERVICE.md). Reuses --kind/--n/--m/--p/--seed/
//                     --threads (serve defaults N to 96); ignores --r.
//   --arrival MODE    serve load shape: closed (think-time population) |
//                     open (fixed-rate arrivals)                  [closed]
//   --requests K      serve: total requests to issue              [1024]
//   --tenants T       serve: tenants sharing the server           [4]
//   --clients C       serve: closed-loop client population        [32]
//   --window S        serve: batching window, virtual seconds     [2e-3]
//   --max-batch B     serve: columns per panel solve cap          [32]
//   --pool K          serve: distinct systems in the workload     [4]
//   --hot H           serve: hot-set size (90% of traffic)        [2]
//   --think S         serve: closed-loop mean think time          [2e-3]
//   --rate R          serve: open-loop arrival rate, req/s        [50e3]
//   --quota Q         serve: per-tenant queued-column quota (0=off) [0]
//   --budget-mb MB    serve: FactorCache byte budget (0=unlimited)  [0]
//   --list    print available methods/kinds/flags and exit
//   --help    same as --list

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/btds/io.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/flops.hpp"
#include "src/core/refine.hpp"
#include "src/core/solver.hpp"
#include "src/fault/plan.hpp"
#include "src/fault/status.hpp"
#include "src/mpsim/obs_bridge.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/cost_model.hpp"
#include "src/obs/live/telemetry.hpp"
#include "src/obs/live/watchdog.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/run_report.hpp"
#include "src/service/factor_cache.hpp"
#include "src/service/loadgen.hpp"
#include "src/service/server.hpp"

namespace {

using namespace ardbt;

constexpr const char* kKnownFlags[] = {
    "--method", "--kind",     "--n",        "--m",      "--p",     "--r",
    "--chunk",
    "--seed",   "--timing",   "--threads",  "--refine", "--load-sys", "--save-sys",
    "--save-x", "--trace",    "--json",     "--metrics", "--list",  "--help",
    "--on-breakdown", "--fault", "--plant-pivot", "--plant-eps",
    "--live-out", "--live-period", "--postmortem",
    "--serve",  "--arrival",  "--requests", "--tenants", "--clients", "--window",
    "--max-batch", "--pool",  "--hot",      "--think",  "--rate",  "--quota",
    "--budget-mb",
    "--deadline", "--retries", "--hedge", "--hedge-delay", "--retry-budget", "--shed-queue",
    "--shed-backlog", "--breaker", "--breaker-cooldown", "--max-resubmits",
};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "ardbt: %s (try --list)\n", message.c_str());
  std::exit(2);
}

/// The structured error channel scripted callers parse: one
/// `ardbt: error: [code] message` line on stderr.
void print_error(fault::ErrorCode code, const std::string& message) {
  std::fprintf(stderr, "ardbt: error: [%s] %s\n", std::string(fault::to_string(code)).c_str(),
               message.c_str());
}

/// Malformed flag *values* (garbage/zero/negative numbers) exit through
/// the same structured channel as solver failures, with exit 1, so
/// scripted callers parse one error grammar.
[[noreturn]] void die_invalid(const std::string& message) {
  print_error(fault::ErrorCode::kInvalidArgument, message);
  std::exit(1);
}

/// Strict decimal parse of an integer flag value in [min_value, max_value]:
/// the whole token must be a number — "8x", "", "1e3" and out-of-range
/// values are all rejected (std::atoi would silently return 0 or garbage).
long long parse_int(const std::string& flag, const std::string& text, long long min_value,
                    long long max_value = std::numeric_limits<long long>::max()) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    die_invalid(flag + " expects an integer, got '" + text + "'");
  }
  if (v < min_value || v > max_value) {
    die_invalid(flag + " must be at least " + std::to_string(min_value) + ", got '" + text +
                "'");
  }
  return v;
}

/// Strict parse of a non-negative double flag value.
double parse_double(const std::string& flag, const std::string& text, double min_value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    die_invalid(flag + " expects a number, got '" + text + "'");
  }
  if (!(v >= min_value)) {
    die_invalid(flag + " must be at least " + std::to_string(min_value) + ", got '" + text +
                "'");
  }
  return v;
}

/// Classic dynamic-programming edit distance, for flag suggestions.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j - 1] + 1, up + 1, sub});
      diag = up;
    }
  }
  return row[b.size()];
}

[[noreturn]] void die_unknown_flag(const std::string& flag) {
  const char* best = nullptr;
  std::size_t best_dist = flag.size();  // suggest only when reasonably close
  for (const char* candidate : kKnownFlags) {
    const std::size_t d = edit_distance(flag, candidate);
    if (d < best_dist) {
      best_dist = d;
      best = candidate;
    }
  }
  std::string message = "unknown flag '" + flag + "'";
  if (best != nullptr && best_dist <= 3) {
    message += "; did you mean '" + std::string(best) + "'?";
  }
  die(message);
}

void print_usage() {
  std::printf("usage: ardbt [flags]\n\n");
  std::printf("methods: ard rd rd-per-rhs pcr\n");
  std::printf("kinds  :");
  for (btds::ProblemKind k : btds::kAllProblemKinds) {
    std::printf(" %s", std::string(btds::to_string(k)).c_str());
  }
  std::printf("\n\nflags:\n");
  std::printf("  --method NAME    solver (default ard)\n");
  std::printf("  --kind NAME      generated problem kind (default diagdom)\n");
  std::printf("  --n/--m/--p/--r  problem shape: block rows / block size /\n");
  std::printf("                   ranks / right-hand sides (1024/8/4/16)\n");
  std::printf("  --seed S         generator seed (42)\n");
  std::printf("  --timing MODE    charged (deterministic) | measured\n");
  std::printf("  --threads T      worker threads per rank for the solve kernels\n");
  std::printf("                   (default 1; results are bit-identical for any T)\n");
  std::printf("  --chunk C        RHS columns per solve panel (0 = all of R, ard):\n");
  std::printf("                   panel k+1's local reduction hides panel k's\n");
  std::printf("                   in-flight scan rounds; solutions bit-identical\n");
  std::printf("                   for any C, only virtual waits change\n");
  std::printf("  --refine K       iterative-refinement steps (ard only)\n");
  std::printf("  --load-sys PATH  solve a saved system (overrides --kind/--n/--m)\n");
  std::printf("  --save-sys PATH  save the generated system\n");
  std::printf("  --save-x PATH    save the solution (.csv suffix -> CSV)\n");
  std::printf("  --trace PATH     write a Chrome/Perfetto trace (one track per\n");
  std::printf("                   rank, virtual clock; see docs/OBSERVABILITY.md)\n");
  std::printf("  --json PATH      write the ardbt.run_report v2 JSON report\n");
  std::printf("                   (timing, critical-path attribution, cost-model\n");
  std::printf("                   verdicts, metrics with p50/p90/p99 latencies)\n");
  std::printf("  --metrics        print a deterministic metrics snapshot to stdout\n");
  std::printf("                   (virtual-clock values only, bit-identical across\n");
  std::printf("                   runs and --threads in charged timing)\n");
  std::printf("  --live-out PATH  stream live telemetry JSONL (structured log +\n");
  std::printf("                   metric snapshots on the virtual clock)\n");
  std::printf("  --live-period S  virtual seconds between snapshots (0 = per run)\n");
  std::printf("  --postmortem P   write an ardbt.postmortem bundle on failure or\n");
  std::printf("                   breakdown (recorder tail, metrics, fault log)\n");
  std::printf("  --on-breakdown M failfast | refine | fallback (default failfast)\n");
  std::printf("  --fault KIND     inject delay | dup | flip | straggle | crash\n");
  std::printf("                   (repeatable, deterministic; docs/ROBUSTNESS.md)\n");
  std::printf("  --plant-pivot I  plant a singular pivot in diagonal block I\n");
  std::printf("  --plant-eps E    planted pivot magnitude (default 0 = singular)\n");
  std::printf("  --serve          run the multi-tenant service scenario: a\n");
  std::printf("                   FactorCache + batching Server replays a\n");
  std::printf("                   deterministic client load on the virtual clock\n");
  std::printf("                   and prints latency/throughput/cache stats\n");
  std::printf("                   (docs/SERVICE.md; serve defaults N to 96)\n");
  std::printf("  --arrival MODE   serve load: closed | open (default closed)\n");
  std::printf("  --requests K     serve: total requests (1024)\n");
  std::printf("  --tenants T      serve: tenants sharing the server (4)\n");
  std::printf("  --clients C      serve: closed-loop population (32)\n");
  std::printf("  --window S       serve: batching window in virtual s (2e-3)\n");
  std::printf("  --max-batch B    serve: columns per panel solve cap (32)\n");
  std::printf("  --pool K         serve: distinct systems (4)\n");
  std::printf("  --hot H          serve: hot-set size, 90%% of traffic (2)\n");
  std::printf("  --think S        serve: closed-loop mean think time (2e-3)\n");
  std::printf("  --rate R         serve: open-loop arrival rate req/s (50e3)\n");
  std::printf("  --quota Q        serve: per-tenant queue quota, 0 = off (0)\n");
  std::printf("  --budget-mb MB   serve: cache byte budget, 0 = unlimited (0)\n");
  std::printf("  --deadline S     serve: mean request deadline, 0 = none (0);\n");
  std::printf("                   infeasible deadlines are rejected at admission,\n");
  std::printf("                   expired ones cancelled at batch start\n");
  std::printf("  --retries K      serve: service-level retries of a batch that\n");
  std::printf("                   failed with a transient fault status (0)\n");
  std::printf("  --hedge          serve: take the first retry as a hedged attempt\n");
  std::printf("  --hedge-delay S  serve: explicit hedge delay (default: half the EWMA\n");
  std::printf("                   service estimate; a cold server does not hedge)\n");
  std::printf("  --retry-budget R serve: retry tokens accrued per admitted column\n");
  std::printf("                   per tenant, capped at a burst of 4 (0.1)\n");
  std::printf("  --shed-queue N   serve: shed admissions at N queued cols, 0 = off\n");
  std::printf("  --shed-backlog S serve: shed when executor backlog exceeds S (0)\n");
  std::printf("  --breaker K      serve: trip a tenant breaker after K consecutive\n");
  std::printf("                   failures, 0 = off (0)\n");
  std::printf("  --breaker-cooldown S  serve: open breaker half-opens after S (0.1)\n");
  std::printf("  --max-resubmits K serve: closed-loop clients give up a request\n");
  std::printf("                   after K consecutive rejections, 0 = never (0)\n");
  std::printf("                   (--fault also applies to --serve: the plan is\n");
  std::printf("                   injected into every cached session's engine)\n");
  std::printf("  --list / --help  this message\n");
}

/// Clock of the printed phase and service times. The charged clock is
/// all model; the measured one charges each rank's CPU time and still
/// prices messages by the cost model.
const char* clock_label(mpsim::TimingMode timing) {
  return timing == mpsim::TimingMode::ChargedFlops ? "virtual" : "measured CPU, modeled messages";
}

core::Method parse_method(const std::string& s) {
  if (s == "ard") return core::Method::kArd;
  if (s == "rd") return core::Method::kRdBatched;
  if (s == "rd-per-rhs") return core::Method::kRdPerRhs;
  if (s == "pcr") return core::Method::kPcr;
  die("unknown method '" + s + "'");
}

btds::ProblemKind parse_kind(const std::string& s) {
  for (btds::ProblemKind kind : btds::kAllProblemKinds) {
    if (s == btds::to_string(kind)) return kind;
  }
  die("unknown problem kind '" + s + "'");
}

obs::Json fault_event_json(const fault::FaultEvent& e) {
  obs::Json j = obs::Json::object();
  j.set("kind", std::string(fault::to_string(e.kind)));
  j.set("rank", e.rank);
  j.set("peer", e.peer);
  j.set("tag", e.tag);
  j.set("seq", static_cast<std::int64_t>(e.seq));
  j.set("vtime_s", e.vtime);
  return j;
}

obs::Json outcome_json(const core::SolveOutcome& o) {
  obs::Json j = obs::Json::object();
  j.set("phase", o.phase);
  j.set("action", o.action);
  j.set("status", std::string(fault::to_string(o.status.code())));
  if (!o.status.is_ok()) j.set("error", o.status.message());
  j.set("retries", o.retries);
  j.set("refine_steps", o.refine_steps);
  if (o.residual >= 0.0) j.set("residual", o.residual);
  if (o.pivot_growth > 0.0) j.set("pivot_growth", o.pivot_growth);
  if (!o.detail.empty()) j.set("detail", o.detail);
  return j;
}

int run_cli(int argc, char** argv) {
  core::Method method = core::Method::kArd;
  btds::ProblemKind kind = btds::ProblemKind::kDiagDominant;
  la::index_t n = 1024, m = 8, r = 16;
  int p = 4;
  std::uint64_t seed = 42;
  int refine_steps = 0;
  std::string load_sys, save_sys, save_x, trace_path, json_path;
  std::string live_out, postmortem_path;
  double live_period = 0.0;
  bool print_metrics = false;
  std::vector<std::string> fault_kinds;
  la::index_t plant_pivot = -1;
  double plant_eps = 0.0;
  bool serve = false;
  bool n_explicit = false;
  service::LoadOptions load;
  load.requests = 1024;
  load.clients = 32;
  load.pool = 4;
  double serve_window_s = 2e-3;
  la::index_t serve_max_batch = 32;
  int serve_quota = 0;
  double serve_budget_mb = 0.0;
  service::ResilienceOptions resilience;
  core::ArdOptions ard_opts;
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  engine.cost = mpsim::CostModel::cluster2014();

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value after " + flag);
      return argv[++i];
    };
    if (flag == "--list" || flag == "--help") {
      print_usage();
      return 0;
    } else if (flag == "--method") {
      method = parse_method(next());
    } else if (flag == "--kind") {
      kind = parse_kind(next());
    } else if (flag == "--n") {
      n = static_cast<la::index_t>(parse_int(flag, next(), 1));
      n_explicit = true;
    } else if (flag == "--m") {
      m = static_cast<la::index_t>(parse_int(flag, next(), 1));
    } else if (flag == "--p") {
      p = static_cast<int>(parse_int(flag, next(), 1, std::numeric_limits<int>::max()));
    } else if (flag == "--r") {
      r = static_cast<la::index_t>(parse_int(flag, next(), 1));
    } else if (flag == "--chunk") {
      ard_opts.chunk_cols = static_cast<la::index_t>(parse_int(flag, next(), 0));
    } else if (flag == "--seed") {
      seed = static_cast<std::uint64_t>(parse_int(flag, next(), 0));
    } else if (flag == "--refine") {
      refine_steps =
          static_cast<int>(parse_int(flag, next(), 0, std::numeric_limits<int>::max()));
    } else if (flag == "--load-sys") {
      load_sys = next();
    } else if (flag == "--save-sys") {
      save_sys = next();
    } else if (flag == "--save-x") {
      save_x = next();
    } else if (flag == "--trace") {
      trace_path = next();
    } else if (flag == "--json") {
      json_path = next();
    } else if (flag == "--metrics") {
      print_metrics = true;
    } else if (flag == "--live-out") {
      live_out = next();
    } else if (flag == "--live-period") {
      live_period = parse_double(flag, next(), 0.0);
    } else if (flag == "--postmortem") {
      postmortem_path = next();
    } else if (flag == "--threads") {
      engine.threads_per_rank =
          static_cast<int>(parse_int(flag, next(), 1, std::numeric_limits<int>::max()));
    } else if (flag == "--on-breakdown") {
      const std::string v = next();
      const auto policy = fault::parse_breakdown_policy(v);
      if (!policy) die("unknown breakdown policy '" + v + "'");
      engine.on_breakdown = *policy;
    } else if (flag == "--fault") {
      fault_kinds.push_back(next());
    } else if (flag == "--plant-pivot") {
      plant_pivot = static_cast<la::index_t>(parse_int(flag, next(), 0));
    } else if (flag == "--plant-eps") {
      plant_eps = parse_double(flag, next(), 0.0);
    } else if (flag == "--timing") {
      const std::string v = next();
      if (v == "charged") {
        engine.timing = mpsim::TimingMode::ChargedFlops;
      } else if (v == "measured") {
        engine.timing = mpsim::TimingMode::MeasuredCpu;
      } else {
        die("unknown timing mode '" + v + "'");
      }
    } else if (flag == "--serve") {
      serve = true;
    } else if (flag == "--arrival") {
      const std::string v = next();
      if (v == "closed") {
        load.arrival = service::Arrival::kClosed;
      } else if (v == "open") {
        load.arrival = service::Arrival::kOpen;
      } else {
        die("unknown arrival mode '" + v + "' (closed|open)");
      }
    } else if (flag == "--requests") {
      load.requests = static_cast<int>(parse_int(flag, next(), 1, 1 << 24));
    } else if (flag == "--tenants") {
      load.tenants = static_cast<int>(parse_int(flag, next(), 1, 1 << 16));
    } else if (flag == "--clients") {
      load.clients = static_cast<int>(parse_int(flag, next(), 1, 1 << 20));
    } else if (flag == "--window") {
      serve_window_s = parse_double(flag, next(), 0.0);
    } else if (flag == "--max-batch") {
      serve_max_batch = static_cast<la::index_t>(parse_int(flag, next(), 1));
    } else if (flag == "--pool") {
      load.pool = static_cast<int>(parse_int(flag, next(), 1, 1 << 16));
    } else if (flag == "--hot") {
      load.hot = static_cast<int>(parse_int(flag, next(), 1, 1 << 16));
    } else if (flag == "--think") {
      load.think_s = parse_double(flag, next(), 0.0);
    } else if (flag == "--rate") {
      load.rate_rps = parse_double(flag, next(), 1.0);
    } else if (flag == "--quota") {
      serve_quota = static_cast<int>(parse_int(flag, next(), 0, 1 << 24));
    } else if (flag == "--budget-mb") {
      serve_budget_mb = parse_double(flag, next(), 0.0);
    } else if (flag == "--deadline") {
      load.deadline_s = parse_double(flag, next(), 0.0);
    } else if (flag == "--retries") {
      resilience.max_retries = static_cast<int>(parse_int(flag, next(), 0, 1 << 16));
    } else if (flag == "--hedge") {
      resilience.hedge = true;
    } else if (flag == "--hedge-delay") {
      resilience.hedge_delay_s = parse_double(flag, next(), 0.0);
    } else if (flag == "--retry-budget") {
      resilience.retry_budget_ratio = parse_double(flag, next(), 0.0);
      // Ratio 0 means "no retry budget at all": also drop the initial
      // burst, so every retry is denied rather than the first four.
      if (resilience.retry_budget_ratio == 0.0) resilience.retry_budget_burst = 0.0;
    } else if (flag == "--shed-queue") {
      resilience.shed_queue_cols = static_cast<int>(parse_int(flag, next(), 0, 1 << 24));
    } else if (flag == "--shed-backlog") {
      resilience.shed_backlog_s = parse_double(flag, next(), 0.0);
    } else if (flag == "--breaker") {
      resilience.breaker_failures = static_cast<int>(parse_int(flag, next(), 0, 1 << 16));
    } else if (flag == "--breaker-cooldown") {
      resilience.breaker_cooldown_s = parse_double(flag, next(), 0.0);
    } else if (flag == "--max-resubmits") {
      load.max_resubmits = static_cast<int>(parse_int(flag, next(), 0, 1 << 24));
    } else {
      die_unknown_flag(flag);
    }
  }

  if (serve) {
    // Solver-as-a-service scenario: no single system to generate — the
    // load generator builds a pool of `--pool` systems from
    // --kind/--n/--m/--seed and replays a deterministic client mix against
    // the FactorCache + batching Server (docs/SERVICE.md). Everything
    // below runs on the virtual clock, so the summary is bit-identical
    // across reruns and --threads values under charged timing.
    if (load.hot > load.pool) die("--hot must not exceed --pool");
    load.kind = kind;
    load.num_blocks = n_explicit ? n : 96;  // the one-shot default 1024 is
                                            // oversized for a pooled load
    load.block_size = m;
    load.seed = seed;
    if (load.num_blocks < p) die("need N >= P");

    // --fault pass-through: the same deterministic schedule grammar as the
    // one-shot path, with the ordinals spread out (stride 7) so the k-th
    // fault lands deeper into the serve run's send stream. Each spec is
    // one-shot — its `fired` state persists across every engine run of
    // every cached session sharing the plan — so `--fault flip --fault
    // crash` injects exactly two fault events into the whole scenario,
    // replayed identically on every rerun.
    fault::FaultPlan serve_plan;
    for (std::size_t k = 0; k < fault_kinds.size(); ++k) {
      const std::string& fk = fault_kinds[k];
      const int rank = static_cast<int>((1 + k) % static_cast<std::size_t>(p));
      const std::uint64_t nth = 2 + 7 * k;
      if (fk == "delay") {
        serve_plan.delay_message(rank, nth, 5e-3);
      } else if (fk == "dup") {
        serve_plan.duplicate_message(rank, nth);
      } else if (fk == "flip") {
        serve_plan.flip_bit(rank, nth, 17 * (k + 1));
      } else if (fk == "straggle") {
        serve_plan.straggle(rank, nth, 5e-3);
      } else if (fk == "crash") {
        serve_plan.crash_before_send(rank, nth);
      } else {
        die("unknown fault kind '" + fk + "' (delay|dup|flip|straggle|crash)");
      }
    }
    if (!serve_plan.empty()) {
      engine.fault_plan = &serve_plan;
      engine.recv_timeout_wall = 10.0;  // hang detector (wall seconds)
    }

    service::FactorCache::Options copts;
    copts.method = method;
    copts.nranks = p;
    copts.byte_budget = static_cast<std::size_t>(serve_budget_mb * 1e6);
    copts.session.engine = engine;
    service::FactorCache cache(copts);

    service::ServerOptions sopts;
    sopts.window_s = serve_window_s;
    sopts.max_batch_cols = serve_max_batch;
    sopts.tenant_queue_quota = serve_quota;
    sopts.resilience = resilience;
    service::Server server(cache, sopts);

    // Shed-storm / breaker-trip watchdogs run over the load's admission
    // counters; sinks are null here, so only the alert count surfaces (in
    // the resilience summary line below).
    obs::live::Watchdogs dogs({}, nullptr, nullptr, nullptr);
    const service::LoadResult lr = service::run_load(server, load, nullptr, &dogs);
    const service::FactorCache::Stats& cs = cache.stats();
    const service::ServerStats& ss = server.stats();
    std::printf("ardbt: serve method=%s kind=%s N=%lld M=%lld P=%d arrival=%s\n",
                std::string(core::to_string(method)).c_str(),
                std::string(btds::to_string(kind)).c_str(),
                static_cast<long long>(load.num_blocks),
                static_cast<long long>(load.block_size), p,
                load.arrival == service::Arrival::kClosed ? "closed" : "open");
    std::printf("  load        : %d tenants, %d clients, pool %d (hot %d), window %.4g s\n",
                load.tenants, load.clients, load.pool, load.hot, serve_window_s);
    std::printf("  requests    : issued %llu, rejected %llu, completed %llu\n",
                static_cast<unsigned long long>(lr.issued),
                static_cast<unsigned long long>(lr.rejected),
                static_cast<unsigned long long>(lr.completed));
    std::printf("  latency     : p50 %.6g s, p99 %.6g s, mean %.6g s (%s)\n", lr.p50_s,
                lr.p99_s, lr.mean_s, clock_label(engine.timing));
    std::printf("  throughput  : %.6g req/s over %.6g s makespan (%s)\n",
                lr.throughput_rps, lr.makespan_s, clock_label(engine.timing));
    std::printf("  batching    : %llu batches, mean %.4g cols, executor busy %.6g s\n",
                static_cast<unsigned long long>(lr.batches), lr.mean_batch_cols, ss.busy_s);
    std::printf("  cache       : hit rate %.4f (%llu/%llu), entries %zu, resident %.3f MB, "
                "evictions %llu\n",
                cs.hit_rate(), static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.lookups), cache.size(),
                static_cast<double>(cache.resident_bytes()) / 1e6,
                static_cast<unsigned long long>(cs.evictions));
    std::printf("  outcomes    : done %llu (degraded %llu), failed %llu, "
                "deadline-exceeded %llu, gave-up %llu\n",
                static_cast<unsigned long long>(lr.done),
                static_cast<unsigned long long>(lr.degraded),
                static_cast<unsigned long long>(lr.failed),
                static_cast<unsigned long long>(lr.deadline_exceeded),
                static_cast<unsigned long long>(lr.gave_up));
    std::printf("  rejections  : quota %llu, shed %llu, breaker %llu, infeasible %llu, "
                "cancelled %llu\n",
                static_cast<unsigned long long>(lr.quota_rejected),
                static_cast<unsigned long long>(lr.shed),
                static_cast<unsigned long long>(lr.breaker_rejected),
                static_cast<unsigned long long>(lr.deadline_infeasible),
                static_cast<unsigned long long>(lr.deadline_cancelled));
    std::printf("  resilience  : retries %llu (hedged %llu, denied %llu), breaker trips %llu, "
                "invalidations %llu, alerts %zu\n",
                static_cast<unsigned long long>(lr.retries),
                static_cast<unsigned long long>(lr.hedges),
                static_cast<unsigned long long>(lr.retries_denied),
                static_cast<unsigned long long>(lr.breaker_trips),
                static_cast<unsigned long long>(lr.invalidations), dogs.alerts_raised());
    std::printf("  goodput     : %.6g req/s (done / makespan)\n", lr.goodput_rps);
    // Exactly-one-typed-terminal-state ledger: every admitted request ends
    // in done | failed | deadline-exceeded; every rejection has a class.
    // tools/check_chaos.py asserts this line verbatim.
    const bool balanced =
        lr.completed == lr.issued &&
        lr.done + lr.failed + lr.deadline_exceeded == lr.completed &&
        lr.quota_rejected + lr.shed + lr.breaker_rejected + lr.deadline_infeasible == lr.rejected;
    std::printf("  accounting  : %s\n", balanced ? "BALANCED" : "UNBALANCED");
    for (const auto& [tenant, completed] : lr.tenant_completed) {
      // A tenant whose every request failed has no latency samples.
      const auto p99_it = lr.tenant_p99_s.find(tenant);
      std::printf("  tenant %-5d: completed %llu, p99 %.6g s\n", tenant,
                  static_cast<unsigned long long>(completed),
                  p99_it != lr.tenant_p99_s.end() ? p99_it->second : 0.0);
    }
    return 0;
  }
  if (n < p) die("need N >= P");

  btds::BlockTridiag sys;
  if (!load_sys.empty()) {
    sys = btds::load_block_tridiag(load_sys);
    n = sys.num_blocks();
    m = sys.block_size();
    if (n < p) die("loaded system too small for --p");
  } else {
    sys = btds::make_problem(kind, n, m, seed);
  }
  if (plant_pivot >= 0) {
    if (plant_pivot >= n) die("--plant-pivot block row out of range");
    btds::plant_singular_pivot(sys, plant_pivot, plant_eps);
  }
  if (!save_sys.empty()) btds::save_block_tridiag(save_sys, sys);
  const la::Matrix b = btds::make_rhs(n, m, r, seed + 1);

  // Deterministic fault schedule: the k-th --fault targets rank (1+k) mod P
  // on that rank's k-th send (counted from 0), so a given command line
  // replays exactly.
  fault::FaultPlan plan;
  for (std::size_t k = 0; k < fault_kinds.size(); ++k) {
    const std::string& fk = fault_kinds[k];
    const int rank = static_cast<int>((1 + k) % static_cast<std::size_t>(p));
    const std::uint64_t nth = k;
    if (fk == "delay") {
      plan.delay_message(rank, nth, 5e-3);
    } else if (fk == "dup") {
      plan.duplicate_message(rank, nth);
    } else if (fk == "flip") {
      plan.flip_bit(rank, nth, 17 * (k + 1));
    } else if (fk == "straggle") {
      plan.straggle(rank, nth, 5e-3);
    } else if (fk == "crash") {
      plan.crash_before_send(rank, nth);
    } else {
      die("unknown fault kind '" + fk + "' (delay|dup|flip|straggle|crash)");
    }
  }
  if (!plan.empty()) {
    engine.fault_plan = &plan;
    engine.recv_timeout_wall = 10.0;  // hang detector (wall seconds)
    engine.virtual_deadline = 2e-3;   // flags the injected 5e-3 s delay
  }

  // Event tracing powers --trace (the timeline itself), --json (per-phase
  // byte counters, message-size histogram, critical-path attribution) and
  // --metrics (latency percentiles).
  obs::Tracer tracer;
  if (!trace_path.empty() || !json_path.empty() || print_metrics) engine.tracer = &tracer;

  // Structured warnings: one JSON record per line on stderr (ardbt.log v1
  // records without the header line), replacing the old ad-hoc
  // "ardbt: warning:" prints. Errors keep the `ardbt: error: [code]`
  // grammar scripted callers parse.
  obs::live::StderrSink warn_sink;
  obs::live::Log warn_log(&warn_sink, {.min_level = obs::live::LogLevel::kWarn,
                                       .max_per_site = 16,
                                       .header = false});

  // Live telemetry: one JSONL stream (--live-out) shared by the
  // structured log and the snapshot cadence, plus the bounded flight
  // recorder and the online watchdogs. --postmortem alone also arms the
  // recorder (records go to an in-memory sink).
  obs::MetricsRegistry live_metrics;
  std::unique_ptr<obs::live::LiveTelemetry> live;
  if (!live_out.empty() || !postmortem_path.empty()) {
    obs::live::LiveTelemetry::Options lopts;
    lopts.live_path = live_out;
    lopts.snapshot.period_s = live_period;
    lopts.postmortem_path = postmortem_path;
    live = std::make_unique<obs::live::LiveTelemetry>(std::move(lopts), &live_metrics);
  }
  const auto close_live = [&] {
    if (!live) return;
    live->close();
    if (!live_out.empty()) {
      std::printf("  live        : streamed to %s (%llu log records, %llu snapshots)\n",
                  live_out.c_str(),
                  static_cast<unsigned long long>(live->log().records_written()),
                  static_cast<unsigned long long>(live->snapshotter().snapshots_written()));
    }
  };

  std::unique_ptr<core::Session> session;
  core::DriverResult res;
  core::RefineResult refined;
  bool degraded = false;
  double pivot_growth = 0.0;
  fault::Status solve_status = fault::Status::ok();
  try {
    if (refine_steps > 0 && method == core::Method::kArd) {
      // The manual-refinement path runs the engine directly; attach the
      // recorder so anomaly taps still land, Session hooks don't apply.
      if (live) engine.recorder = &live->recorder();
      res.x.resize(b.rows(), b.cols());
      const btds::RowPartition part(n, p);
      // Both phases share one engine run, which starts at virtual time 0:
      // the factor ends at the latest rank's factor stamp, and the solve
      // takes the rest of the run.
      std::vector<double> factored_at(static_cast<std::size_t>(p), 0.0);
      res.report = mpsim::run(
          p,
          [&](mpsim::Comm& comm) {
            auto factor_span = comm.trace_scope(obs::SpanKind::kPhase, "driver.factor");
            const auto f = core::ArdFactorization::factor(comm, sys, part, ard_opts);
            factor_span.close();
            factored_at[static_cast<std::size_t>(comm.rank())] = comm.vtime();
            auto solve_span = comm.trace_scope(obs::SpanKind::kPhase, "driver.solve");
            const la::index_t lo = part.begin(comm.rank()) * m;
            const la::index_t rows = part.count(comm.rank()) * m;
            const auto rr = core::solve_refined(comm, f, sys, part, b.block(lo, 0, rows, b.cols()),
                                                res.x.block(lo, 0, rows, b.cols()), refine_steps,
                                                0.0);
            if (comm.rank() == 0) refined = rr;
          },
          engine);
      res.factor_vtime = *std::max_element(factored_at.begin(), factored_at.end());
      res.solve_vtime = res.report.max_virtual_time() - res.factor_vtime;
    } else {
      session = std::make_unique<core::Session>(
          method, sys, p, core::SessionConfig{.ard = ard_opts, .engine = engine});
      if (live) session->set_telemetry(live->handle());
      session->factor();
      res.x = session->solve(b);
      res.report = session->report();
      res.factor_vtime = session->factor_vtime();
      res.solve_vtime = session->solve_vtimes().back();
      res.outcomes = session->outcomes();
      degraded = session->degraded();
      pivot_growth = session->pivot_growth();
    }
  } catch (const fault::SolveError& e) {
    solve_status = e.status();
  }
  const bool failed = !solve_status.is_ok();

  const double residual = failed ? -1.0 : btds::relative_residual(sys, res.x, b);
  const auto totals = res.report.totals();
  std::printf("ardbt: method=%s kind=%s N=%lld M=%lld P=%d R=%lld\n",
              std::string(core::to_string(method)).c_str(),
              std::string(btds::to_string(kind)).c_str(), static_cast<long long>(n),
              static_cast<long long>(m), p, static_cast<long long>(r));
  if (!failed) {
    // hardware_concurrency() reads 0 when unknown; then claim nothing.
    const int threads = p * engine.threads_per_rank;
    const auto cores = static_cast<int>(std::thread::hardware_concurrency());
    std::printf("  factor time : %.4g s (%s)\n", res.factor_vtime, clock_label(engine.timing));
    std::printf("  solve time  : %.4g s (%s)\n", res.solve_vtime, clock_label(engine.timing));
    std::printf("  wall time   : %.4g s (host, %d %sthread%s)\n", res.report.wall_seconds,
                threads, cores > 0 && threads > cores ? "oversubscribed " : "",
                threads == 1 ? "" : "s");
    std::printf("  flops       : %.4g total, %.4g msgs, %.4g MB sent\n", totals.flops_charged,
                static_cast<double>(totals.msgs_sent),
                static_cast<double>(totals.bytes_sent) / 1e6);
    std::printf("  residual    : %.3e\n", residual);
    if (refine_steps > 0 && !refined.residual_norms.empty()) {
      std::printf("  refinement  : %d steps, ||r|| %.3e -> %.3e\n", refined.steps,
                  refined.residual_norms.front(), refined.residual_norms.back());
    }
    std::printf("  model       : rd-per-rhs/ard speedup at this shape = %.3g\n",
                core::flops::predicted_speedup(n, m, r, p));
  }
  bool eventful = !plan.empty() || failed || degraded;
  for (const auto& o : res.outcomes) {
    if (o.action != "ok" || o.retries > 0) eventful = true;
  }
  if (eventful) {
    std::string actions;
    for (const auto& o : res.outcomes) {
      if (!actions.empty()) actions += ",";
      actions += o.phase + ":" + o.action;
      if (o.retries > 0) actions += "+retry" + std::to_string(o.retries);
    }
    std::printf("  robustness  : policy=%s injected=%zu detected=%zu growth=%.3g%s%s%s\n",
                std::string(fault::to_string(engine.on_breakdown)).c_str(),
                plan.injected().size(), plan.detected().size(), pivot_growth,
                degraded ? " degraded" : "", actions.empty() ? "" : " actions=",
                actions.c_str());
  }
  if (failed) print_error(solve_status.code(), solve_status.message());
  if (!failed && !save_x.empty()) {
    if (save_x.size() > 4 && save_x.substr(save_x.size() - 4) == ".csv") {
      btds::save_matrix_csv(save_x, res.x);
    } else {
      btds::save_matrix(save_x, res.x);
    }
    std::printf("  solution    : saved to %s\n", save_x.c_str());
  }

  if (!trace_path.empty()) {
    obs::write_chrome_trace(trace_path, tracer);
    std::printf("  trace       : saved to %s (chrome://tracing, ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  if (!json_path.empty() || print_metrics) {
    obs::MetricsRegistry metrics;
    mpsim::export_metrics(res.report, metrics);
    mpsim::export_metrics(tracer, metrics);
    if (session) session->export_latency_metrics(metrics);

    // Attribution: dependency graph + critical path over the traced run.
    const obs::Attribution attr = obs::analyze(tracer);

    // Cost-model oracle, seeded with the simulator's own constants and
    // calibrated on the factor phase when the method has one. Phases
    // whose measured/predicted ratio drifts past the threshold get a
    // structured warning — the formulas count the per-rank critical path,
    // so a clean run sits near ratio 1.
    obs::CostModel oracle(engine.cost.oracle_constants());
    std::vector<obs::CostVerdict> verdicts;
    if (!failed) {
      if (method == core::Method::kArd) {
        oracle.calibrate(core::flops::ard_factor_terms(n, m, p), res.factor_vtime);
        verdicts.push_back(
            oracle.judge("factor", core::flops::ard_factor_terms(n, m, p), res.factor_vtime));
        verdicts.push_back(
            oracle.judge("solve", core::flops::ard_solve_terms(n, m, r, p), res.solve_vtime));
      } else if (method == core::Method::kRdBatched) {
        verdicts.push_back(
            oracle.judge("solve", core::flops::rd_batched_terms(n, m, r, p), res.solve_vtime));
      } else if (method == core::Method::kRdPerRhs) {
        verdicts.push_back(
            oracle.judge("solve", core::flops::rd_per_rhs_terms(n, m, r, p), res.solve_vtime));
      }
      for (const auto& v : verdicts) {
        if (v.flagged) {
          obs::Json fields = obs::Json::object();
          fields.set("phase", v.phase);
          fields.set("ratio", v.ratio);
          fields.set("threshold", oracle.threshold());
          warn_log.warn("cli.cost_model",
                        "phase '" + v.phase + "' measured/predicted ratio outside threshold",
                        res.report.max_virtual_time(), std::move(fields));
        }
      }
      if (live) live->watchdogs().check_cost(verdicts, res.report.max_virtual_time());
    }

    // A nonzero drop count means the bounded per-rank rings overwrote
    // events: any attribution over this trace is partial (complete=false).
    std::uint64_t trace_dropped = 0;
    for (int tr = 0; tr < tracer.nranks(); ++tr) trace_dropped += tracer.rank(tr).dropped();
    if (trace_dropped > 0) {
      obs::Json fields = obs::Json::object();
      fields.set("dropped_events", trace_dropped);
      warn_log.warn("cli.trace_drop",
                    std::to_string(trace_dropped) +
                        " trace event(s) dropped by bounded rings; attribution is partial",
                    res.report.max_virtual_time(), std::move(fields));
      if (live) live->watchdogs().check_trace_drops(trace_dropped, res.report.max_virtual_time());
    }

    if (print_metrics) {
      // Everything between the sentinels is virtual-clock or count data:
      // bit-identical across repeated runs and --threads values under
      // charged timing (tools/check_trace.py asserts this).
      obs::Json snapshot = obs::Json::object();
      snapshot.set("metrics", obs::deterministic_metrics(metrics.to_json()));
      snapshot.set("attribution", obs::to_json(attr));
      snapshot.set("cost_model", oracle.to_json(verdicts));
      std::printf("--- metrics (deterministic) ---\n%s\n--- end metrics ---\n",
                  snapshot.dump(1).c_str());
    }
    if (json_path.empty()) {
      close_live();
      return failed ? 1 : 0;
    }

    obs::RunReportBuilder report("ardbt_cli");
    report.config("method", std::string(core::to_string(method)))
        .config("kind", std::string(btds::to_string(kind)))
        .config("n", static_cast<std::int64_t>(n))
        .config("m", static_cast<std::int64_t>(m))
        .config("p", p)
        .config("r", static_cast<std::int64_t>(r))
        .config("seed", seed)
        .config("timing",
                engine.timing == mpsim::TimingMode::ChargedFlops ? "charged" : "measured")
        .config("threads", engine.threads_per_rank)
        .config("chunk", static_cast<std::int64_t>(ard_opts.chunk_cols))
        .config("refine", refine_steps)
        .config("on_breakdown", std::string(fault::to_string(engine.on_breakdown)));
    obs::Json timing = obs::Json::object();
    timing.set("factor_vtime_s", res.factor_vtime);
    timing.set("solve_vtime_s", res.solve_vtime);
    timing.set("wall_s", res.report.wall_seconds);
    timing.set("max_virtual_time_s", res.report.max_virtual_time());
    report.set_section("timing", std::move(timing));
    obs::Json accuracy = obs::Json::object();
    accuracy.set("relative_residual", residual);
    report.set_section("accuracy", std::move(accuracy));
    report.set_section("totals", mpsim::to_json(totals));
    {
      obs::Json ranks = obs::Json::array();
      for (const auto& s : res.report.ranks) ranks.push(mpsim::to_json(s));
      report.set_section("ranks", std::move(ranks));
    }
    report.set_section("metrics", metrics.to_json());
    report.set_section("attribution", obs::to_json(attr));
    report.set_section("cost_model", oracle.to_json(verdicts));
    {
      // Robustness: policy, per-phase outcomes, and the full fault log —
      // every injected fault plus every detection/recovery action.
      obs::Json robustness = obs::Json::object();
      robustness.set("policy", std::string(fault::to_string(engine.on_breakdown)));
      robustness.set("ok", !failed);
      if (failed) {
        robustness.set("error_code", std::string(fault::to_string(solve_status.code())));
        robustness.set("error", solve_status.message());
      }
      robustness.set("degraded", degraded);
      robustness.set("pivot_growth", pivot_growth);
      obs::Json outcomes = obs::Json::array();
      for (const auto& o : res.outcomes) outcomes.push(outcome_json(o));
      robustness.set("outcomes", std::move(outcomes));
      obs::Json injected = obs::Json::array();
      for (const auto& e : plan.injected()) injected.push(fault_event_json(e));
      robustness.set("faults_injected", std::move(injected));
      obs::Json detected = obs::Json::array();
      for (const auto& e : plan.detected()) detected.push(fault_event_json(e));
      robustness.set("faults_detected", std::move(detected));
      report.set_section("robustness", std::move(robustness));
    }
    report.write(json_path);
    std::printf("  report      : saved to %s (schema %s v%d)\n", json_path.c_str(),
                obs::kRunReportSchema, obs::kRunReportVersion);
  }
  close_live();
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A typed failure outside the solve — a file that cannot be opened,
  // read or written (--load-sys, --save-*, --trace, --json) — leaves on
  // the structured error channel with exit 1 instead of terminating.
  try {
    return run_cli(argc, argv);
  } catch (const fault::SolveError& e) {
    print_error(e.code(), e.what());
    return 1;
  }
}
