#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/solver.hpp"
#include "src/service/rng.hpp"
#include "stats.hpp"
#include "trace.hpp"

/// \file common.hpp
/// Shared configuration and result types of the wall-clock benchmark.

namespace perfbench {

/// Every workload runs on P = 4 ranks with one thread each (at most four
/// busy threads, one per core of the reference host) under the uncalibrated
/// cluster2014 cost model with charged flops, so the virtual time of each
/// operation is deterministic and can sit beside its wall time.
inline constexpr int kRanks = 4;
inline constexpr int kThreadsPerRank = 1;

inline ardbt::core::SessionConfig session_config() {
  ardbt::core::SessionConfig config;
  config.engine.cost = ardbt::mpsim::CostModel::cluster2014();
  config.engine.timing = ardbt::mpsim::TimingMode::ChargedFlops;
  config.engine.threads_per_rank = kThreadsPerRank;
  return config;
}

using ardbt::service::splitmix64;
using ardbt::service::uniform01;

/// Independent input stream `stream` of the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ull * (stream + 1));
  return splitmix64(s);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Shape of a workload's solve: N block rows of order M, R columns.
struct Shape {
  ardbt::la::index_t n = 0, m = 0, r = 0;
};

/// What a workload's timed loop hands back. Times are wall seconds.
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;    ///< one value per set-up repetition
  std::vector<double> op_s;       ///< one value per timed operation
  double loop_wall_s = 0.0;       ///< wall of the timed work (checks excluded)
  double columns = 0.0;           ///< right-hand-side columns completed in it
  std::vector<std::string> notes; ///< first few failure descriptions
  Shape shape;                    ///< the operation's solve shape
  std::uint64_t working_set_bytes = 0;
  /// Virtual seconds the cost model predicts for one operation.
  double model_s = 0.0;
  /// Layer numbers a workload measures in its own loop (the service
  /// counters); merged into the traced output.
  Metrics layer;

  void fail(const std::string& what) {
    ++failed;
    if (notes.size() < 8) notes.push_back(what);
  }
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;  ///< non-null in the traced run
};

WorkloadResult run_timestep(const RunOptions& opts);
WorkloadResult run_refactor(const RunOptions& opts);
WorkloadResult run_service(const RunOptions& opts);

/// Per-layer probes of the traced run (layers.cpp): every per-layer metric
/// not measured inside the workload loop itself. The probes' own
/// correctness checks count into `main`.
void probe_layers(const std::string& workload, const RunOptions& opts, WorkloadResult& main,
                  Metrics& out);

/// Max-norm distance of `x` from `ref`, relative to max|ref|.
double rel_error(const ardbt::la::Matrix& x, const ardbt::la::Matrix& ref);
/// Bound `rel_error` must meet: the systems are block-diagonally dominant,
/// so ARD and serial Thomas agree to near machine precision.
inline constexpr double kTolerance = 1e-10;

/// Shapes of the three workloads.
inline constexpr Shape kTimestepShape{16384, 8, 16};
inline constexpr Shape kRefactorShape{4096, 16, 1};
inline constexpr Shape kServiceShape{96, 8, 1};

}  // namespace perfbench
