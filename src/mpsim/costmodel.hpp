#pragma once

#include <cstdint>
#include <string>

#include "src/obs/cost_model.hpp"

/// \file costmodel.hpp
/// Alpha-beta communication cost model used by the virtual-time engine.
/// A message of b bytes sent at sender virtual time t becomes available to
/// the receiver at `t + alpha + beta * b`; the receiver's clock advances to
/// at least that instant. Compute is charged either from measured
/// per-thread CPU time or from explicitly charged flops divided by
/// `flop_rate` (see TimingMode in engine.hpp). The analytic predictor,
/// obs::CostModel over core/flops.hpp's terms, takes its constants from
/// here (oracle_constants).

namespace ardbt::mpsim {

/// Machine parameters for the virtual clock.
struct CostModel {
  /// Per-message latency in seconds (includes software overhead).
  double alpha = 5e-6;
  /// Per-byte transfer time in seconds (inverse bandwidth).
  double beta = 1e-9;
  /// Flop rate in flop/s used by TimingMode::ChargedFlops.
  double flop_rate = 2e9;

  /// Human-readable profile name for reports.
  std::string name = "commodity-cluster-2014";

  /// Modeled time for one message of `bytes` bytes.
  double message_time(std::uint64_t bytes) const {
    return alpha + beta * static_cast<double>(bytes);
  }

  /// The same machine as constants of the cost-model oracle
  /// (obs::CostModel): the one place the engine's flop rate becomes a
  /// per-flop time.
  obs::CostModel::Constants oracle_constants() const {
    return {.seconds_per_flop = 1.0 / flop_rate, .alpha = alpha, .beta = beta};
  }

  /// A profile resembling the interconnects of IPDPS-2014-era clusters
  /// (QDR InfiniBand-ish: ~2 us latency, ~3 GB/s effective bandwidth).
  static CostModel cluster2014() {
    return CostModel{.alpha = 2e-6, .beta = 1.0 / 3e9, .flop_rate = 5e9, .name = "qdr-ib-2014"};
  }
};

}  // namespace ardbt::mpsim
