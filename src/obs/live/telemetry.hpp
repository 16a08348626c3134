#pragma once

#include <memory>
#include <string>

#include "src/obs/live/log.hpp"
#include "src/obs/live/recorder.hpp"
#include "src/obs/live/sink.hpp"
#include "src/obs/live/snapshot.hpp"
#include "src/obs/live/watchdog.hpp"
#include "src/obs/metrics.hpp"

/// \file telemetry.hpp
/// The live-telemetry bundle: the handle core::Session consumes, plus a
/// convenience owner (LiveTelemetry) that assembles the whole chain —
/// file sink, structured log, flight recorder, snapshotter, watchdogs —
/// from one options struct, for the CLI and benches.
///
/// Every pointer in Telemetry is optional and non-owned; a default
/// Telemetry{} is fully inert and costs the instrumented code one pointer
/// test per hook (the zero-cost contract).

namespace ardbt::obs::live {

/// Non-owning view over the live-telemetry components a Session uses.
struct Telemetry {
  Log* log = nullptr;                 ///< structured log records
  FlightRecorder* recorder = nullptr; ///< bounded span/metric/anomaly recorder
  Snapshotter* snapshotter = nullptr; ///< periodic metric snapshots
  Watchdogs* watchdogs = nullptr;     ///< online SLO detectors
  MetricsRegistry* metrics = nullptr; ///< registry fed between runs
  std::string postmortem_path;        ///< dump bundle here on failure ("" = off)

  bool any() const {
    return log != nullptr || recorder != nullptr || snapshotter != nullptr ||
           watchdogs != nullptr || metrics != nullptr || !postmortem_path.empty();
  }
};

/// Owner that builds the standard chain: one LineSink (file path or an
/// in-memory sink for tests) shared by the log and the snapshot stream,
/// plus recorder and watchdogs, all wired to one MetricsRegistry.
class LiveTelemetry {
 public:
  struct Options {
    /// JSONL output path shared by log + snapshots; "" = in-memory sink
    /// (retrievable via memory_lines()), "-" = stderr.
    std::string live_path{};
    LogOptions log{};
    RecorderOptions recorder{};
    SnapshotOptions snapshot{};
    WatchdogOptions watchdog{};
    std::string postmortem_path{};  ///< "" = no postmortem dumps
  };

  /// `metrics` is not owned and must outlive this object.
  LiveTelemetry(Options options, MetricsRegistry* metrics)
      : options_(std::move(options)), metrics_(metrics) {
    if (options_.live_path.empty()) {
      sink_ = std::make_unique<MemorySink>();
    } else if (options_.live_path == "-") {
      sink_ = std::make_unique<StderrSink>();
    } else {
      sink_ = std::make_unique<FileSink>(options_.live_path);
    }
    log_ = std::make_unique<Log>(sink_.get(), options_.log);
    recorder_ = std::make_unique<FlightRecorder>(options_.recorder);
    snapshotter_ = std::make_unique<Snapshotter>(sink_.get(), metrics_, options_.snapshot);
    watchdogs_ = std::make_unique<Watchdogs>(options_.watchdog, log_.get(), metrics_,
                                             recorder_.get());
  }

  /// The handle to install on a Session. Valid while *this lives.
  Telemetry handle() {
    Telemetry t;
    t.log = log_.get();
    t.recorder = recorder_.get();
    t.snapshotter = snapshotter_.get();
    t.watchdogs = watchdogs_.get();
    t.metrics = metrics_;
    t.postmortem_path = options_.postmortem_path;
    return t;
  }

  Log& log() { return *log_; }
  FlightRecorder& recorder() { return *recorder_; }
  Snapshotter& snapshotter() { return *snapshotter_; }
  Watchdogs& watchdogs() { return *watchdogs_; }
  LineSink& sink() { return *sink_; }

  /// Lines captured so far when live_path was "" (in-memory sink).
  const std::vector<std::string>* memory_lines() const {
    const auto* mem = dynamic_cast<const MemorySink*>(sink_.get());
    return mem != nullptr ? &mem->lines() : nullptr;
  }

  /// Flush suppressed-log summaries and the sink. Safe to call twice.
  void close() {
    log_->close();
    sink_->flush();
  }

 private:
  Options options_;
  MetricsRegistry* metrics_;
  std::unique_ptr<LineSink> sink_;
  std::unique_ptr<Log> log_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::unique_ptr<Snapshotter> snapshotter_;
  std::unique_ptr<Watchdogs> watchdogs_;
};

}  // namespace ardbt::obs::live
