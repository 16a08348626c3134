#include "src/mpsim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <exception>
#include <memory>

#include "src/fault/status.hpp"
#include "src/par/pool.hpp"

namespace ardbt::mpsim {

namespace {

/// The parked threads of one (nranks, threads_per_rank) shape: a P-lane
/// pool whose lane r hosts rank r (lane 0 is the calling thread), plus
/// each rank's intra-rank pool when threads_per_rank > 1. Nothing of a
/// run survives in it but the threads themselves; World, Comm and the
/// pool trace hooks are rebuilt by every run.
struct Team {
  Team(int nranks, int threads_per_rank)
      : nranks(nranks), threads_per_rank(threads_per_rank), lanes(nranks) {
    if (threads_per_rank > 1) {
      rank_pools.reserve(static_cast<std::size_t>(nranks));
      for (int r = 0; r < nranks; ++r) {
        rank_pools.push_back(std::make_unique<par::Pool>(threads_per_rank));
      }
    }
  }

  int nranks;
  int threads_per_rank;
  bool busy = false;  ///< a run (possibly an outer one on this thread) owns it
  par::Pool lanes;
  std::vector<std::unique_ptr<par::Pool>> rank_pools;
};

/// This thread's parked teams, most recently used last. Destroyed — every
/// team thread joined — when the owning thread exits.
thread_local std::vector<std::unique_ptr<Team>> t_teams;

/// Borrows an idle team of the requested shape for one run, building it on
/// a miss and joining the least recently used idle teams beyond
/// kMaxCachedTeams. A busy team belongs to an outer run on this thread (a
/// run nested in a rank body); it is never handed out or evicted, so only
/// nesting can hold the cache above its bound.
class TeamLease {
 public:
  TeamLease(int nranks, int threads_per_rank) {
    auto hit = std::find_if(t_teams.begin(), t_teams.end(), [&](const std::unique_ptr<Team>& t) {
      return !t->busy && t->nranks == nranks && t->threads_per_rank == threads_per_rank;
    });
    if (hit == t_teams.end()) {
      for (auto it = t_teams.begin();
           t_teams.size() >= static_cast<std::size_t>(kMaxCachedTeams) && it != t_teams.end();) {
        it = (*it)->busy ? it + 1 : t_teams.erase(it);
      }
      t_teams.push_back(std::make_unique<Team>(nranks, threads_per_rank));
      hit = t_teams.end() - 1;
    }
    std::rotate(hit, hit + 1, t_teams.end());
    team_ = t_teams.back().get();
    team_->busy = true;
  }
  ~TeamLease() { team_->busy = false; }

  TeamLease(const TeamLease&) = delete;
  TeamLease& operator=(const TeamLease&) = delete;

  Team* operator->() const { return team_; }

 private:
  Team* team_;
};

}  // namespace

double RunReport::max_virtual_time() const {
  double m = 0.0;
  for (const auto& r : ranks) m = std::max(m, r.virtual_time);
  return m;
}

RankStats RunReport::totals() const {
  RankStats t;
  for (const auto& r : ranks) t.accumulate(r);
  return t;
}

RunReport run(int nranks, const RankFn& fn, const EngineOptions& options) {
  if (nranks <= 0) throw fault::InvalidArgumentError("mpsim::run", "nranks must be positive");
  if (options.threads_per_rank < 1) {
    throw fault::InvalidArgumentError("mpsim::run", "threads_per_rank must be >= 1");
  }

  World world(nranks, options.cost, options.timing, options.vtime_origin);
  // An empty plan is equivalent to none: the per-message pointer test stays
  // null and no wire framing is added.
  if (options.fault_plan != nullptr && !options.fault_plan->empty()) {
    options.fault_plan->prepare(nranks);
    world.plan = options.fault_plan;
  }
  world.virtual_deadline = options.virtual_deadline;
  world.recv_timeout_wall = options.recv_timeout_wall;
  RunReport report;
  report.ranks.resize(static_cast<std::size_t>(nranks));

  // Size the per-rank event buffers before the ranks start; a disabled
  // tracer is equivalent to none.
  obs::Tracer* tracer =
      (options.tracer != nullptr && options.tracer->enabled()) ? options.tracer : nullptr;
  const int pool_threads = options.threads_per_rank;
  if (tracer != nullptr) {
    tracer->prepare(nranks);
    // Worker lanes only exist when the hooks are compiled in — with the
    // obs kill switch a --trace run stays metadata-only, one track/rank.
    if (pool_threads > 1 && obs::kTraceCompiledIn) {
      tracer->prepare_workers(nranks, pool_threads);
    }
  }

  // Size the flight-recorder rank channels before the ranks start; a
  // disabled recorder hands out null channels (channel() returns null).
  obs::live::FlightRecorder* recorder =
      (options.recorder != nullptr && options.recorder->enabled()) ? options.recorder : nullptr;
  if (recorder != nullptr) recorder->prepare(nranks);

  // Per-rank error slots (no shared mutable state, no lock): the reported
  // error is the lowest-numbered rank's root cause — deterministic however
  // the threads were scheduled. Root causes (anything but AbortedError)
  // take precedence over the AbortedError cascades they trigger in peers.
  std::vector<std::exception_ptr> rank_error(static_cast<std::size_t>(nranks));
  std::vector<char> rank_root_cause(static_cast<std::size_t>(nranks), 0);

  const auto t0 = std::chrono::steady_clock::now();
  const TeamLease team(nranks, pool_threads);
  // One static chunk per lane: lane r runs exactly rank r, so a rank
  // always lands on the same parked thread (and its pool) run after run.
  team->lanes.parallel_for(0, nranks, [&](std::int64_t lo, std::int64_t hi) {
    assert(hi == lo + 1);
    (void)hi;
    const int r = static_cast<int>(lo);
    Comm comm(world, r);
    if (tracer != nullptr) comm.set_trace(&tracer->rank(r));
    if (recorder != nullptr) comm.set_recorder(recorder->channel(r));
    if (pool_threads > 1) {
      // Worker-lane spans are anchored on the rank's virtual clock via the
      // Comm thunk. The hooks are re-installed or cleared every run: a hook
      // left over from a traced run would point at that run's dead Comm.
      par::Pool& pool = *team->rank_pools[static_cast<std::size_t>(r)];
      if (tracer != nullptr && obs::kTraceCompiledIn) {
        std::vector<obs::RankTrace*> lanes;
        lanes.reserve(static_cast<std::size_t>(pool_threads));
        for (int w = 0; w < pool_threads; ++w) lanes.push_back(&tracer->worker(r, w));
        pool.set_trace(std::move(lanes), &Comm::now_sample_thunk, &comm);
      } else {
        pool.set_trace({}, nullptr, nullptr);
      }
      comm.set_pool(&pool);
    }
    try {
      fn(comm);
    } catch (const AbortedError&) {
      rank_error[static_cast<std::size_t>(r)] = std::current_exception();
      // This rank died of a dead peer; mark it dead too so failure
      // cascades along data-flow chains (a rank waiting on *us* must
      // not hang). Release-store after our last send (see Mailbox::pop).
      world.dead[static_cast<std::size_t>(r)].store(true, std::memory_order_release);
      for (auto& mb : world.mailboxes) mb.interrupt();
    } catch (...) {
      rank_error[static_cast<std::size_t>(r)] = std::current_exception();
      rank_root_cause[static_cast<std::size_t>(r)] = 1;
      world.dead[static_cast<std::size_t>(r)].store(true, std::memory_order_release);
      for (auto& mb : world.mailboxes) mb.interrupt();
    }
    const double vtime = comm.vtime();  // folds trailing compute into the clock
    RankStats s = comm.stats();
    s.virtual_time = vtime;
    report.ranks[static_cast<std::size_t>(r)] = s;
  }, "mpsim.run");
  const auto t1 = std::chrono::steady_clock::now();
  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();

  for (int r = 0; r < nranks; ++r) {
    if (rank_root_cause[static_cast<std::size_t>(r)]) {
      std::rethrow_exception(rank_error[static_cast<std::size_t>(r)]);
    }
  }
  for (int r = 0; r < nranks; ++r) {
    if (rank_error[static_cast<std::size_t>(r)]) {
      std::rethrow_exception(rank_error[static_cast<std::size_t>(r)]);
    }
  }
  return report;
}

}  // namespace ardbt::mpsim
