#pragma once

#include <cstdint>

#include "src/obs/live/sink.hpp"
#include "src/obs/metrics.hpp"

/// \file snapshot.hpp
/// Periodic metric-registry snapshots on a virtual-clock cadence, emitted
/// as an append-only JSONL time series — the time axis a service-layer
/// dashboard (p50/p99 latency over time, throughput, arena pressure)
/// consumes while the process is still running.
///
/// Stream layout (JSONL, shares a sink with the structured log):
///
///   {"schema":"ardbt.metrics_snapshot","version":1}   <- header, first emit
///   {"type":"snapshot","n":0,"t_s":0.004,"metrics":{...}}
///   {"type":"snapshot","n":1,"t_s":0.012,"metrics":{...}}
///
/// The cadence runs on the *virtual* clock: tick(t) emits a snapshot when
/// `t` has crossed the next period boundary since the last emission (one
/// snapshot per crossing — an idle gap of many periods yields one
/// snapshot, not a backlog, so a stalled workload cannot flood the
/// stream). period_s == 0 snapshots on every tick. Metric values are
/// filtered through deterministic_metrics() by default, so under charged
/// timing the stream is bit-identical across runs and thread counts.
///
/// Driver-thread only, like all live emitters.

namespace ardbt::obs::live {

inline constexpr const char* kSnapshotSchema = "ardbt.metrics_snapshot";
inline constexpr int kSnapshotVersion = 1;

struct SnapshotOptions {
  double period_s = 0.0;  ///< virtual seconds between snapshots (0 = every tick)
  /// Keep host-clock metrics (wall/cpu/panel) in the stream. Off by
  /// default: they vary run to run and would break bit-stability.
  bool include_nondeterministic = false;
  bool header = true;  ///< emit the {"schema","version"} header line
};

class Snapshotter {
 public:
  /// The sink and registry are not owned and must outlive the snapshotter.
  Snapshotter(LineSink* sink, const MetricsRegistry* registry, SnapshotOptions options = {});

  /// Emit a snapshot if `vtime_s` crossed the cadence boundary. Returns
  /// true when a snapshot was written.
  bool tick(double vtime_s);

  /// Emit unconditionally (final snapshot at shutdown).
  void force(double vtime_s);

  std::uint64_t snapshots_written() const { return written_; }

 private:
  void emit(double vtime_s);

  LineSink* sink_;
  const MetricsRegistry* registry_;
  SnapshotOptions options_;
  bool header_written_ = false;
  double next_due_ = 0.0;
  std::uint64_t written_ = 0;
};

}  // namespace ardbt::obs::live
