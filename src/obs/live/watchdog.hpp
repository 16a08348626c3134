#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/status.hpp"
#include "src/obs/cost_model.hpp"
#include "src/obs/live/log.hpp"
#include "src/obs/live/recorder.hpp"
#include "src/obs/metrics.hpp"

/// \file watchdog.hpp
/// Online SLO watchdogs: detectors that run *during* a service workload
/// (between chained Session runs, on the virtual clock) and turn raw
/// telemetry into actionable alerts — a structured log record, a
/// `watchdog.*` counter, and a flight-recorder anomaly snapshot per
/// finding — instead of waiting for a post-run report nobody reads until
/// the incident review.
///
/// Alerts are advisory: a watchdog never throws and never perturbs the
/// solve (it reads samples the run already produced). The alert taxonomy
/// (fault::AlertKind) lives in the fault layer so every layer shares one
/// vocabulary.
///
/// Layering: obs sits below mpsim, so the rank detector takes neutral
/// RankSample rows, not mpsim::RunReport — core::Session projects its
/// report into samples (one extra copy of four numbers per rank).
///
/// All sinks are optional; a null Log / registry / recorder simply skips
/// that output. Driver thread only.

namespace ardbt::obs::live {

/// Per-rank telemetry row for check_ranks(), projected from the engine's
/// per-rank stats by the caller.
struct RankSample {
  int rank = 0;
  double virtual_time = 0.0;            ///< rank's final virtual clock, seconds
  double virtual_wait = 0.0;            ///< virtual seconds blocked in receives
  std::uint64_t deadline_misses = 0;    ///< receives that exceeded their deadline
};

struct WatchdogOptions {
  /// A rank is a straggler when its wait fraction exceeds
  /// `straggler_factor` times the fleet median wait fraction...
  double straggler_factor = 2.0;
  /// ...and is also above this absolute floor (a fleet of uniformly tiny
  /// waits has no straggler no matter the ratio).
  double straggler_min_wait_fraction = 0.25;
  /// Shed-storm alert when shed / offered columns reaches this fraction.
  double shed_storm_fraction = 0.1;
};

/// One raised alert (also what lands in the log record's fields).
struct Alert {
  fault::AlertKind kind = fault::AlertKind::kStraggler;
  double vtime = 0.0;
  std::string message;
};

class Watchdogs {
 public:
  /// All outputs optional and non-owned: `log` receives one warn record
  /// per alert, `metrics` the `watchdog.*` counters, `recorder` one
  /// anomaly snapshot per alert.
  Watchdogs(WatchdogOptions options, Log* log, MetricsRegistry* metrics,
            FlightRecorder* recorder);

  /// Straggler + deadline detector over one run's rank samples. Returns
  /// the number of alerts raised.
  std::size_t check_ranks(const std::vector<RankSample>& samples, double vtime_s);

  /// Steady-state violation detector for grow-on-demand arenas (no fixed
  /// capacity): after warmup, a solve should recycle every scratch matrix
  /// — `grown_allocs` fresh slab allocations mean the arena is still
  /// growing (a leak-shaped signal under a chained-solve workload).
  std::size_t check_arena_growth(const char* name, std::uint64_t grown_allocs, double vtime_s);

  /// Cost-model drift detector over judged phase verdicts (one alert per
  /// flagged verdict).
  std::size_t check_cost(const std::vector<CostVerdict>& verdicts, double vtime_s);

  /// Trace/recorder ring overflow detector (`dropped` events lost).
  std::size_t check_trace_drops(std::uint64_t dropped, double vtime_s);

  /// Service-resilience detector over one load run's admission and
  /// breaker counters: raises kShedStorm when the shed share of offered
  /// columns reaches `shed_storm_fraction` (admission is actively
  /// refusing a large slice of traffic — capacity, not a blip) and one
  /// kBreakerTrip per tenant breaker trip observed.
  std::size_t check_service(std::uint64_t offered, std::uint64_t shed,
                            std::uint64_t breaker_trips, double vtime_s);

  std::uint64_t alerts_raised() const { return alerts_raised_; }
  /// Alerts raised so far, oldest first (bounded by kMaxKeptAlerts).
  const std::vector<Alert>& alerts() const { return alerts_; }

 private:
  static constexpr std::size_t kMaxKeptAlerts = 64;

  void raise(fault::AlertKind kind, double vtime_s, std::string message, Json fields);

  WatchdogOptions options_;
  Log* log_;
  MetricsRegistry* metrics_;
  FlightRecorder* recorder_;
  std::uint64_t alerts_raised_ = 0;
  std::vector<Alert> alerts_;
};

}  // namespace ardbt::obs::live
