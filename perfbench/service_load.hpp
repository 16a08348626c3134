#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "src/service/server.hpp"

/// \file service_load.hpp
/// The service workload's request stream and one replay ("round") of it
/// against a fresh FactorCache + Server.
///
/// Open loop: jittered arrivals at a fixed virtual rate below the server's
/// modelled capacity; 4 tenants; 90% of requests go to 2 hot systems of a
/// pool of 8. The byte budget holds the hot set but not the pool, so cold
/// requests evict and refactor. Every round replays the same requests, so
/// its counters are exact for a seed.

namespace perfbench {

inline constexpr int kServiceRequests = 2000;      ///< requests per round
inline constexpr int kServiceWarmupRequests = 256; ///< set-up round
inline constexpr double kServiceRate = 20e3;       ///< virtual arrivals per second
inline constexpr double kServiceWindow = 1e-3;     ///< batching window, seconds
inline constexpr int kServicePool = 8;
inline constexpr int kServiceHot = 2;
inline constexpr double kServiceHotShare = 0.9;
inline constexpr int kServiceTenants = 4;
inline constexpr std::size_t kServiceBudget = 600000;  ///< FactorCache bytes

struct ServiceLoad {
  struct Req {
    int system = 0;
    int tenant = 0;
    double arrival_s = 0.0;
    ardbt::la::Matrix rhs;
    ardbt::la::Matrix ref;  ///< serial-Thomas solution (compute_references)
  };

  explicit ServiceLoad(std::uint64_t seed);
  /// Solve every request with serial Thomas, for the correctness check.
  void compute_references();
  /// Bytes of systems and request columns.
  std::uint64_t bytes() const;

  std::vector<std::shared_ptr<const ardbt::btds::BlockTridiag>> pool;
  std::vector<ardbt::service::Fingerprint> fps;
  std::vector<Req> reqs;
};

/// Wall samples of the timed calls, pooled over rounds.
struct ServiceSamples {
  std::vector<double> batch_s;   ///< one flush_next that executed a batch
  std::vector<double> hit_s;     ///< of those, batches whose factorization was cached
  std::vector<double> miss_s;    ///< ... and batches that factored on a miss
  std::vector<double> hit_cols;  ///< columns of each hit batch
  std::vector<double> submit_s;  ///< one try_submit (never runs a batch here)
};

class ServiceRound {
 public:
  /// Exact per-round counters; equal across rounds of one seed.
  struct Counts {
    std::uint64_t admitted = 0, rejected = 0;
    std::uint64_t done = 0, failed = 0, deadline_exceeded = 0;
    std::uint64_t batches = 0, batch_cols = 0;
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    double busy_s = 0.0;
    bool operator==(const Counts&) const = default;
  };

  ServiceRound(const ServiceLoad& load, int requests, Tracer* tracer);

  /// Replay the first `requests` requests and drain; fills samples.
  void run();
  /// Ledger (done + failed + deadline-exceeded = admitted) and every
  /// solved column against its reference; counts into `res`.
  void check(WorkloadResult& res) const;
  void collect(ServiceSamples& out) const;

  const Counts& counts() const { return counts_; }
  /// Wall of the replay itself (no correctness checks).
  double wall_s() const { return wall_s_; }

 private:
  void flush_before(ardbt::service::Server& server, double t);

  const ServiceLoad& load_;
  int requests_;
  Tracer* tracer_;
  Counts counts_;
  double wall_s_ = 0.0;
  ServiceSamples samples_;
  std::vector<ardbt::service::Completion> completions_;
};

/// service.* per-layer metrics from pooled samples and round counters.
void report_service(const ServiceSamples& s, const ServiceRound::Counts& c, Metrics& out);

}  // namespace perfbench
