#include "service_load.hpp"

#include <string>

#include "src/btds/generators.hpp"
#include "src/btds/thomas.hpp"
#include "src/service/factor_cache.hpp"
#include "src/service/fingerprint.hpp"

namespace perfbench {

using namespace ardbt;

ServiceLoad::ServiceLoad(std::uint64_t seed) {
  const Shape sh = kServiceShape;
  for (int i = 0; i < kServicePool; ++i) {
    auto sys = std::make_shared<const btds::BlockTridiag>(btds::make_problem(
        btds::ProblemKind::kDiagDominant, sh.n, sh.m, mix_seed(seed, 100 + i)));
    fps.push_back(service::fingerprint(*sys));
    pool.push_back(std::move(sys));
  }
  std::uint64_t state = mix_seed(seed, 200);
  double t = 0.0;
  for (int i = 0; i < kServiceRequests; ++i) {
    t += ardbt::service::jittered(state, 1.0 / kServiceRate);
    Req q;
    q.arrival_s = t;
    q.system = uniform01(state) < kServiceHotShare
                   ? static_cast<int>(splitmix64(state) % kServiceHot)
                   : kServiceHot + static_cast<int>(splitmix64(state) %
                                                    (kServicePool - kServiceHot));
    q.tenant = static_cast<int>(splitmix64(state) % kServiceTenants);
    q.rhs = la::Matrix(sh.n * sh.m, 1);
    for (double& v : q.rhs.data()) v = 2.0 * uniform01(state) - 1.0;
    reqs.push_back(std::move(q));
  }
}

void ServiceLoad::compute_references() {
  std::vector<btds::ThomasFactorization> thomas;
  for (const auto& sys : pool) thomas.push_back(btds::ThomasFactorization::factor(*sys));
  for (Req& q : reqs) q.ref = thomas[static_cast<std::size_t>(q.system)].solve(q.rhs);
}

std::uint64_t ServiceLoad::bytes() const {
  const Shape sh = kServiceShape;
  const auto block = static_cast<std::uint64_t>(sh.m * sh.m) * sizeof(double);
  const auto column = static_cast<std::uint64_t>(sh.n * sh.m) * sizeof(double);
  return pool.size() * 3 * static_cast<std::uint64_t>(sh.n) * block + reqs.size() * column;
}

ServiceRound::ServiceRound(const ServiceLoad& load, int requests, Tracer* tracer)
    : load_(load), requests_(requests), tracer_(tracer) {}

void ServiceRound::flush_before(service::Server& server, double t) {
  // The same batches Server::flush_until(t) would run, one flush_next at a
  // time, so each timed call is exactly one executed batch.
  while (server.next_close_s() < t) {
    const std::size_t before = server.completions().size();
    const double t0 = now_s();
    {
      ScopedSpan span(tracer_, "service.Server::flush_next");
      server.flush_next();
    }
    const double dt = now_s() - t0;
    const auto& done = server.completions();
    if (done.size() == before) continue;
    samples_.batch_s.push_back(dt);
    if (done.back().cache_hit) {
      samples_.hit_s.push_back(dt);
      samples_.hit_cols.push_back(static_cast<double>(done.size() - before));
    } else {
      samples_.miss_s.push_back(dt);
    }
  }
}

void ServiceRound::run() {
  const double t_start = now_s();
  service::FactorCache::Options copts;
  copts.method = core::Method::kArd;
  copts.nranks = kRanks;
  copts.byte_budget = kServiceBudget;
  copts.session = session_config();
  service::FactorCache cache(copts);
  service::ServerOptions sopts;
  sopts.window_s = kServiceWindow;
  sopts.keep_solutions = true;
  service::Server server(cache, sopts);
  for (std::size_t i = 0; i < load_.pool.size(); ++i) {
    server.register_system(load_.fps[i], [sys = load_.pool[i]] { return sys; });
  }

  for (int i = 0; i < requests_; ++i) {
    const ServiceLoad::Req& q = load_.reqs[static_cast<std::size_t>(i)];
    flush_before(server, q.arrival_s);
    service::Request req;
    req.id = static_cast<std::uint64_t>(i);
    req.tenant = q.tenant;
    req.system = load_.fps[static_cast<std::size_t>(q.system)];
    req.rhs = q.rhs;
    req.arrival_s = q.arrival_s;
    const std::uint64_t batches0 = server.stats().batches;
    const double t0 = now_s();
    service::Admission adm;
    {
      ScopedSpan span(tracer_, "service.Server::try_submit");
      adm = server.try_submit(std::move(req));
    }
    const double dt = now_s() - t0;
    // A batch reaching max_batch_cols closes inside try_submit; that call
    // timed a batch, not an admission.
    if (server.stats().batches == batches0) {
      samples_.submit_s.push_back(dt);
    } else {
      samples_.batch_s.push_back(dt);
      (server.completions().back().cache_hit ? samples_.hit_s : samples_.miss_s).push_back(dt);
    }
    if (adm == service::Admission::kAdmitted) {
      ++counts_.admitted;
    } else {
      ++counts_.rejected;
    }
  }
  flush_before(server, service::Server::kNever);
  wall_s_ = now_s() - t_start;

  completions_ = server.take_completions();
  for (const service::Completion& c : completions_) {
    switch (c.outcome) {
      case service::Outcome::kDone: ++counts_.done; break;
      case service::Outcome::kFailed: ++counts_.failed; break;
      case service::Outcome::kDeadlineExceeded: ++counts_.deadline_exceeded; break;
    }
  }
  const service::ServerStats& ss = server.stats();
  counts_.batches = ss.batches;
  counts_.batch_cols = ss.batch_cols;
  counts_.busy_s = ss.busy_s;
  const service::FactorCache::Stats& cs = cache.stats();
  counts_.hits = cs.hits;
  counts_.misses = cs.misses;
  counts_.evictions = cs.evictions;
}

void ServiceRound::check(WorkloadResult& res) const {
  res.attempted += counts_.admitted + counts_.rejected;
  for (std::uint64_t i = 0; i < counts_.rejected; ++i) res.fail("service: request rejected");
  if (counts_.done + counts_.failed + counts_.deadline_exceeded != counts_.admitted) {
    res.fail("service: completion ledger does not balance (" + std::to_string(counts_.done) +
             " done + " + std::to_string(counts_.failed) + " failed + " +
             std::to_string(counts_.deadline_exceeded) + " deadline-exceeded != " +
             std::to_string(counts_.admitted) + " admitted)");
  }
  for (const service::Completion& c : completions_) {
    if (c.outcome != service::Outcome::kDone) {
      res.fail("service: request " + std::to_string(c.id) + " ended " +
               std::string(service::to_string(c.outcome)));
      continue;
    }
    const double err = rel_error(c.x, load_.reqs[c.id].ref);
    if (!(err <= kTolerance)) {
      res.fail("service: request " + std::to_string(c.id) + " relative error " +
               std::to_string(err) + " against serial Thomas");
    }
  }
}

void ServiceRound::collect(ServiceSamples& out) const {
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(out.batch_s, samples_.batch_s);
  append(out.hit_s, samples_.hit_s);
  append(out.miss_s, samples_.miss_s);
  append(out.hit_cols, samples_.hit_cols);
  append(out.submit_s, samples_.submit_s);
}

void report_service(const ServiceSamples& s, const ServiceRound::Counts& c, Metrics& out) {
  const auto lookups = static_cast<double>(c.hits + c.misses);
  out["service.submit_us"] = {median(s.submit_s) * 1e6, "us"};
  out["service.hit_batch_ms"] = {median(s.hit_s) * 1e3, "ms"};
  out["service.miss_batch_ms"] = {median(s.miss_s) * 1e3, "ms"};
  out["service.hit_rate"] = {lookups > 0 ? static_cast<double>(c.hits) / lookups : 0.0, "ratio"};
  out["service.misses"] = {static_cast<double>(c.misses), "count"};
  out["service.evictions"] = {static_cast<double>(c.evictions), "count"};
  out["service.batches"] = {static_cast<double>(c.batches), "count"};
  out["service.mean_batch_cols"] = {
      c.batches > 0 ? static_cast<double>(c.batch_cols) / static_cast<double>(c.batches) : 0.0,
      "count"};
}

}  // namespace perfbench
