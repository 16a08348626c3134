#include "src/service/server.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/fault/status.hpp"
#include "src/service/fingerprint.hpp"
#include "src/service/loadgen.hpp"

namespace ardbt::service {
namespace {

using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;

mpsim::EngineOptions charged() {
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  engine.cost = mpsim::CostModel::cluster2014();
  return engine;
}

FactorCache::Options cache_options(std::size_t byte_budget = 0, int nranks = 2) {
  FactorCache::Options opts;
  opts.nranks = nranks;
  opts.byte_budget = byte_budget;
  opts.session.engine = charged();
  return opts;
}

std::shared_ptr<const btds::BlockTridiag> shared_problem(ProblemKind kind, la::index_t n,
                                                         la::index_t m, std::uint64_t seed) {
  return std::make_shared<const btds::BlockTridiag>(make_problem(kind, n, m, seed));
}

la::Matrix column(const la::Matrix& panel, la::index_t j) {
  la::Matrix col(panel.rows(), 1);
  for (la::index_t i = 0; i < panel.rows(); ++i) col(i, 0) = panel(i, j);
  return col;
}

TEST(Fingerprint, StableAndContentSensitive) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 12, 3, 7);
  const Fingerprint fp = fingerprint(sys);
  // Pinned: the digest (domain tag, shape, block bytes) must not drift.
  EXPECT_EQ(fp, 0x96508df3fa8237a7ull);
  // Same content -> same fingerprint, across distinct objects.
  EXPECT_EQ(fp, fingerprint(make_problem(ProblemKind::kDiagDominant, 12, 3, 7)));

  // Any single-entry perturbation must move the fingerprint.
  auto perturbed = make_problem(ProblemKind::kDiagDominant, 12, 3, 7);
  perturbed.diag(5)(1, 2) += 1e-13;
  EXPECT_NE(fp, fingerprint(perturbed));

  // Different seed / kind / shape all separate.
  EXPECT_NE(fp, fingerprint(make_problem(ProblemKind::kDiagDominant, 12, 3, 8)));
  EXPECT_NE(fp, fingerprint(make_problem(ProblemKind::kPoisson2D, 12, 3, 7)));
  EXPECT_NE(fp, fingerprint(make_problem(ProblemKind::kDiagDominant, 13, 3, 7)));
}

TEST(Fingerprint, AllPoolMembersDistinct) {
  // A realistic pool (what the load generator registers) must be
  // collision-free: every pairwise fingerprint differs.
  std::set<Fingerprint> seen;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    seen.insert(fingerprint(make_problem(ProblemKind::kDiagDominant, 16, 4, seed)));
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(FactorCache, HitsMissesAndCorrectSolves) {
  FactorCache cache(cache_options());
  const auto sys = shared_problem(ProblemKind::kDiagDominant, 12, 3, 1);
  const Fingerprint fp = fingerprint(*sys);
  int builds = 0;
  const SystemMaker make = [&] {
    ++builds;
    return sys;
  };

  FactorCache::Lease first = cache.acquire(fp, make);
  EXPECT_FALSE(first.hit);
  EXPECT_GT(first.factor_vtime_s, 0.0);
  EXPECT_TRUE(first.session->factored());

  FactorCache::Lease second = cache.acquire(fp, make);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.factor_vtime_s, 0.0);
  EXPECT_EQ(second.session.get(), first.session.get());
  EXPECT_EQ(builds, 1);

  const la::Matrix b = make_rhs(12, 3, 2, 5);
  const la::Matrix x = second.session->solve(b);
  EXPECT_LT(btds::relative_residual(*sys, x, b), 1e-10);

  EXPECT_EQ(cache.stats().lookups, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_GT(cache.resident_bytes(), 0u);
}

TEST(FactorCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Budget sized for roughly one entry: the cache must hold each new
  // entry and evict strictly in LRU order.
  FactorCache probe(cache_options());
  probe.acquire(1, [] { return shared_problem(ProblemKind::kDiagDominant, 12, 3, 1); });
  const std::size_t one_entry = probe.resident_bytes();

  FactorCache cache(cache_options(one_entry + 1));
  for (std::uint64_t s = 1; s <= 3; ++s) {
    cache.acquire(s, [s] { return shared_problem(ProblemKind::kDiagDominant, 12, 3, s); });
  }
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.contains(3));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_LE(cache.resident_bytes(), one_entry + 1);

  // Touch order drives eviction: acquire 1, 2, re-touch 1, insert 3 in a
  // roomier cache -> 2 is the LRU victim.
  FactorCache lru(cache_options(2 * one_entry + 1));
  for (std::uint64_t s : {1ull, 2ull, 1ull, 3ull}) {
    lru.acquire(s, [s] { return shared_problem(ProblemKind::kDiagDominant, 12, 3, s); });
  }
  EXPECT_TRUE(lru.contains(1));
  EXPECT_FALSE(lru.contains(2));
  EXPECT_TRUE(lru.contains(3));

  // The MRU entry is never evicted, even when a single factorization
  // exceeds the whole budget.
  FactorCache tiny(cache_options(1));
  tiny.acquire(7, [] { return shared_problem(ProblemKind::kDiagDominant, 12, 3, 7); });
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_GT(tiny.resident_bytes(), 1u);
}

TEST(FactorCache, EvictionDuringInflightSolveIsSafe) {
  // The shared-ownership contract: a Lease checked out before eviction
  // keeps the Session (and through it the system) alive and usable.
  FactorCache probe(cache_options());
  probe.acquire(1, [] { return shared_problem(ProblemKind::kDiagDominant, 12, 3, 1); });
  const std::size_t one_entry = probe.resident_bytes();

  FactorCache cache(cache_options(one_entry + 1));
  auto sys = shared_problem(ProblemKind::kDiagDominant, 12, 3, 1);
  const std::weak_ptr<const btds::BlockTridiag> weak = sys;
  FactorCache::Lease lease = cache.acquire(fingerprint(*sys), [&] { return std::move(sys); });

  // Insert another entry: the budget forces the leased entry out.
  cache.acquire(99, [] { return shared_problem(ProblemKind::kDiagDominant, 12, 3, 2); });
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.contains(fingerprint(*weak.lock())));
  EXPECT_FALSE(weak.expired()) << "lease must keep the evicted system alive";

  const la::Matrix b = make_rhs(12, 3, 1, 9);
  const la::Matrix x = lease.session->solve(b);
  EXPECT_LT(btds::relative_residual(*weak.lock(), x, b), 1e-10);

  // Dropping the last lease releases the system.
  lease.session.reset();
  EXPECT_TRUE(weak.expired());
}

TEST(Server, CoalescesWindowIntoOnePanelSolve) {
  FactorCache cache(cache_options());
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.keep_solutions = true;
  Server server(cache, opts);

  const auto sys = shared_problem(ProblemKind::kDiagDominant, 10, 2, 3);
  const Fingerprint fp = fingerprint(*sys);
  server.register_system(fp, [sys] { return sys; });

  const la::Matrix panel = make_rhs(10, 2, 3, 11);
  for (la::index_t j = 0; j < 3; ++j) {
    Request req;
    req.id = static_cast<std::uint64_t>(j);
    req.tenant = static_cast<int>(j);
    req.system = fp;
    req.rhs = column(panel, j);
    req.arrival_s = 1e-4 * static_cast<double>(j);  // all inside one window
    ASSERT_TRUE(server.submit(std::move(req)));
  }
  server.drain();

  ASSERT_EQ(server.completions().size(), 3u);
  EXPECT_EQ(server.stats().batches, 1u);
  EXPECT_EQ(server.stats().batch_cols, 3u);
  for (const Completion& c : server.completions()) {
    EXPECT_EQ(c.batch, 0u);
    EXPECT_DOUBLE_EQ(c.close_s, 1e-3);  // first arrival armed the deadline
    EXPECT_GE(c.finish_s, c.close_s);
    const la::Matrix b = column(panel, static_cast<la::index_t>(c.id));
    EXPECT_LT(btds::relative_residual(*sys, c.x, b), 1e-10);
  }

  // Submitting an unregistered fingerprint is a structured error.
  Request bad;
  bad.system = fp + 1;
  bad.rhs = column(panel, 0);
  bad.arrival_s = 1.0;
  EXPECT_THROW(server.submit(std::move(bad)), fault::InvalidArgumentError);
}

TEST(Server, WindowAndCapSplitBatches) {
  FactorCache cache(cache_options());
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.max_batch_cols = 2;
  Server server(cache, opts);

  const auto sys = shared_problem(ProblemKind::kDiagDominant, 10, 2, 3);
  const Fingerprint fp = fingerprint(*sys);
  server.register_system(fp, [sys] { return sys; });

  // Four same-instant columns with a 2-column cap -> two batches.
  const la::Matrix panel = make_rhs(10, 2, 4, 12);
  for (la::index_t j = 0; j < 4; ++j) {
    Request req;
    req.id = static_cast<std::uint64_t>(j);
    req.system = fp;
    req.rhs = column(panel, j);
    req.arrival_s = 0.0;
    ASSERT_TRUE(server.submit(std::move(req)));
  }
  // A fifth column far outside the window lands in its own batch.
  Request late;
  late.id = 4;
  late.system = fp;
  late.rhs = column(panel, 0);
  late.arrival_s = 1.0;
  ASSERT_TRUE(server.submit(std::move(late)));
  server.drain();

  EXPECT_EQ(server.stats().batches, 3u);
  EXPECT_EQ(server.stats().served, 5u);
  EXPECT_EQ(server.completions().size(), 5u);
}

TEST(Server, TenantQuotaAndFairShare) {
  FactorCache cache(cache_options());
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.tenant_queue_quota = 2;
  opts.tenant_batch_share = 2;
  opts.max_batch_cols = 64;
  Server server(cache, opts);

  const auto sys = shared_problem(ProblemKind::kDiagDominant, 10, 2, 3);
  const Fingerprint fp = fingerprint(*sys);
  server.register_system(fp, [sys] { return sys; });

  const la::Matrix panel = make_rhs(10, 2, 1, 13);
  const auto submit = [&](std::uint64_t id, int tenant) {
    Request req;
    req.id = id;
    req.tenant = tenant;
    req.system = fp;
    req.rhs = column(panel, 0);
    req.arrival_s = 0.0;
    return server.submit(std::move(req));
  };

  // Tenant 0 may queue two columns; the third is rejected. Tenant 1 is
  // unaffected by tenant 0's rejection.
  EXPECT_TRUE(submit(0, 0));
  EXPECT_TRUE(submit(1, 0));
  EXPECT_FALSE(submit(2, 0));
  EXPECT_TRUE(submit(3, 1));
  EXPECT_EQ(server.stats().rejected, 1u);

  server.drain();
  EXPECT_EQ(server.stats().served, 3u);

  // Queue drained -> the tenant may submit again.
  EXPECT_TRUE(submit(4, 0));
  server.drain();
  EXPECT_EQ(server.stats().served, 4u);
}

TEST(Server, RoundRobinFairnessAcrossTenantsInABatch) {
  // One chatty tenant, two quiet ones, per-batch share of one column per
  // tenant: the fairness pass must seat every tenant in the first batch
  // and spill the chatty tenant's surplus into re-armed windows.
  FactorCache cache(cache_options());
  ServerOptions opts;
  opts.window_s = 1e-3;
  opts.max_batch_cols = 0;  // window closes batches, not the cap
  opts.tenant_batch_share = 1;
  Server server(cache, opts);

  const auto sys = shared_problem(ProblemKind::kDiagDominant, 10, 2, 3);
  const Fingerprint fp = fingerprint(*sys);
  server.register_system(fp, [sys] { return sys; });

  const la::Matrix panel = make_rhs(10, 2, 1, 14);
  std::uint64_t id = 0;
  const auto submit = [&](int tenant) {
    Request req;
    req.id = id++;
    req.tenant = tenant;
    req.system = fp;
    req.rhs = column(panel, 0);
    req.arrival_s = 0.0;
    ASSERT_TRUE(server.submit(std::move(req)));
  };
  for (int k = 0; k < 4; ++k) submit(0);  // chatty
  submit(1);
  submit(2);
  server.flush_next();  // first window expires

  // First batch: exactly one column per tenant, chatty surplus spilled.
  ASSERT_EQ(server.completions().size(), 3u);
  std::set<int> tenants_in_first;
  for (const Completion& c : server.completions()) {
    EXPECT_EQ(c.batch, 0u);
    tenants_in_first.insert(c.tenant);
  }
  EXPECT_EQ(tenants_in_first, (std::set<int>{0, 1, 2}));

  // The spilled tenant-0 columns drain one per re-armed window.
  server.drain();
  EXPECT_EQ(server.stats().served, 6u);
  EXPECT_EQ(server.stats().batches, 4u);
}

TEST(LoadGen, DeterministicAcrossRunsAndCacheEffective) {
  LoadOptions load;
  load.requests = 192;
  load.clients = 12;
  load.tenants = 3;
  load.pool = 2;
  load.hot = 1;
  load.num_blocks = 16;
  load.block_size = 3;
  load.seed = 5;

  const auto run_once = [&] {
    FactorCache cache(cache_options(0, 2));
    ServerOptions sopts;
    sopts.window_s = 1e-3;
    sopts.max_batch_cols = 16;
    Server server(cache, sopts);
    return run_load(server, load);
  };

  const LoadResult a = run_once();
  const LoadResult b = run_once();
  EXPECT_EQ(a.completed, static_cast<std::uint64_t>(load.requests));
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.p50_s, b.p50_s);
  EXPECT_EQ(a.p99_s, b.p99_s);
  EXPECT_EQ(a.mean_s, b.mean_s);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.tenant_completed, b.tenant_completed);
  EXPECT_EQ(a.tenant_p99_s, b.tenant_p99_s);

  // The hot/cold mix over a 2-system pool amortizes factorization: the
  // batch-level hit rate must clear the service's 90% bar.
  EXPECT_GT(a.hit_rate, 0.9);
  EXPECT_GT(a.mean_batch_cols, 1.0);
  EXPECT_GT(a.throughput_rps, 0.0);
}

TEST(LoadGen, ThreadCountDoesNotChangeResults) {
  LoadOptions load;
  load.requests = 96;
  load.clients = 8;
  load.tenants = 2;
  load.pool = 2;
  load.hot = 1;
  load.num_blocks = 16;
  load.block_size = 3;
  load.seed = 6;

  const auto run_with_threads = [&](int threads) {
    FactorCache::Options copts = cache_options(0, 2);
    copts.session.engine.threads_per_rank = threads;
    FactorCache cache(copts);
    ServerOptions sopts;
    sopts.window_s = 1e-3;
    Server server(cache, sopts);
    return run_load(server, load);
  };

  const LoadResult t1 = run_with_threads(1);
  const LoadResult t3 = run_with_threads(3);
  EXPECT_EQ(t1.p50_s, t3.p50_s);
  EXPECT_EQ(t1.p99_s, t3.p99_s);
  EXPECT_EQ(t1.mean_s, t3.mean_s);
  EXPECT_EQ(t1.makespan_s, t3.makespan_s);
  EXPECT_EQ(t1.batches, t3.batches);
  EXPECT_EQ(t1.hit_rate, t3.hit_rate);
}

}  // namespace
}  // namespace ardbt::service
