#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>

#include "src/core/solver.hpp"
#include "src/service/fingerprint.hpp"

namespace ardbt::obs {
class MetricsRegistry;
}

/// \file factor_cache.hpp
/// LRU cache of factored Sessions, keyed by matrix fingerprint.
///
/// The paper's accelerated algorithm splits a solve into an O(M^3)
/// right-hand-side-independent factor phase and an O(M^2 R) solve phase;
/// the service amortizes the former across every request that hits the
/// same system. The cache owns each system through the Session's
/// shared-ownership constructor, so eviction is always safe: dropping the
/// cache entry releases the cache's reference, while any in-flight Lease
/// keeps the Session — and through it the system — alive until the last
/// solve on it returns (the eviction-during-inflight contract
/// tests/test_service.cpp pins down).
///
/// Determinism: the cache is driven from one thread on the virtual clock
/// (Sessions are not thread-safe), uses std::map/std::list internally,
/// and evicts in strict LRU order — identical request sequences produce
/// identical hit/miss/eviction sequences, bit-for-bit.

namespace ardbt::service {

/// Builds (or returns a cached) system for a fingerprint on a cache miss.
/// Returning an aliasing/non-owning pointer is legal only if the caller
/// guarantees the pointee outlives every Session the cache may create.
using SystemMaker = std::function<std::shared_ptr<const btds::BlockTridiag>()>;

class FactorCache {
 public:
  struct Options {
    core::Method method = core::Method::kArd;
    int nranks = 4;
    /// Budget for summed Session::storage_bytes() of resident entries;
    /// 0 = unlimited. The most recently acquired entry is never evicted,
    /// so a single over-budget factorization stays resident rather than
    /// thrashing. It is a per-rank budget: storage_bytes() is the factored
    /// state of a session's busiest rank, which is what one node of a
    /// distributed deployment holds, not the sum over its ranks, and it
    /// does not count the system the factorization borrows.
    std::size_t byte_budget = 0;
    /// Configuration applied to every cached Session (cost model, timing
    /// mode, ladder policy, telemetry).
    core::SessionConfig session{};
  };

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    double hit_rate() const {
      return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
    }
  };

  /// A checked-out Session. Holding the Lease (or copying its shared_ptr)
  /// keeps the Session alive across eviction; the Session keeps its
  /// system alive in turn.
  struct Lease {
    std::shared_ptr<core::Session> session;
    bool hit = false;
    /// Modeled seconds the factor phase cost on a miss (0 on a hit) —
    /// what the server charges the triggering batch.
    double factor_vtime_s = 0.0;
  };

  explicit FactorCache(Options opts) : opts_(std::move(opts)) {}

  /// Look up `fp`; on a miss, build the system via `make`, factor a
  /// Session for it, insert, and evict LRU entries while over budget.
  /// Always returns a usable Lease.
  Lease acquire(Fingerprint fp, const SystemMaker& make);

  /// Drop the entry for `fp` (no-op, returning false, when not resident).
  /// The server calls this when a batch on the entry hit a factorization
  /// breakdown: the cached Session is suspect, so the next acquire
  /// refactors from scratch. Same lifetime contract as eviction —
  /// in-flight Leases keep the dropped Session (and its system) alive and
  /// solvable until the last one releases it.
  bool invalidate(Fingerprint fp);

  bool contains(Fingerprint fp) const { return entries_.count(fp) > 0; }
  std::size_t size() const { return entries_.size(); }
  /// Summed storage_bytes() of resident entries.
  std::size_t resident_bytes() const { return resident_bytes_; }
  const Stats& stats() const { return stats_; }
  const Options& options() const { return opts_; }

  /// Gauges/counters under "service.cache.*".
  void export_metrics(obs::MetricsRegistry& reg) const;

 private:
  struct Entry {
    std::shared_ptr<core::Session> session;
    std::size_t bytes = 0;
    std::list<Fingerprint>::iterator lru_it;  ///< position in lru_
  };

  void touch(Entry& e);
  void evict_while_over_budget();

  Options opts_;
  Stats stats_;
  std::size_t resident_bytes_ = 0;
  std::list<Fingerprint> lru_;             ///< front = most recently used
  std::map<Fingerprint, Entry> entries_;   ///< ordered: deterministic iteration
};

}  // namespace ardbt::service
