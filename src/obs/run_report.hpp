#pragma once

#include <string>

#include "src/obs/json.hpp"

/// \file run_report.hpp
/// The stable machine-readable run-report schema ("ardbt.run_report",
/// version 2) shared by the CLI and every experiment binary, so
/// downstream tooling (plot scripts, CI trend checks) parses one format
/// no matter which binary produced it.
///
/// Document layout:
///
///   {
///     "schema":  "ardbt.run_report",
///     "version": 2,
///     "tool":    "<binary name>",
///     "config":  { ... flags / problem shape ... },
///     ... tool-specific sections added via set_section():
///     "timing":  { "factor_vtime_s": ..., "solve_vtime_s": ...,
///                  "wall_s": ..., "max_virtual_time_s": ... },
///     "totals":  { RankStats sums/maxima },
///     "ranks":   [ per-rank RankStats ],
///     "metrics": { MetricsRegistry snapshot; v2 adds a "latencies"
///                  section with p50/p90/p99/max per histogram },
///     "attribution": { obs::to_json(Attribution): critical path,
///                  per-rank compute/send/wait/idle, per-phase
///                  percentiles },
///     "cost_model": { CostModel::to_json: constants + per-phase
///                  measured-vs-predicted verdicts },
///     "tables":  { "<name>": [ {col: cell, ...}, ... ] }
///   }
///
/// Section order is insertion order; producers should emit config first.
/// Consumers must ignore unknown keys (additive evolution only; breaking
/// changes bump "version"). v1 -> v2: added optional "attribution",
/// "cost_model", and metrics "latencies" sections; no v1 key changed
/// meaning, so v1 consumers keep working.
///
/// Bench history files ("ardbt.bench_history") are JSON Lines: a header
/// line {"schema": "ardbt.bench_history", "version": 1} followed by one
/// compact run_report document per line, appended per run via
/// append_history_line() — append-only so the perf trajectory accumulates
/// datapoints instead of overwriting them (tools/perf_gate.py compares
/// the latest entry against a fresh run).

namespace ardbt::obs {

inline constexpr const char* kRunReportSchema = "ardbt.run_report";
inline constexpr int kRunReportVersion = 2;

inline constexpr const char* kBenchHistorySchema = "ardbt.bench_history";
inline constexpr int kBenchHistoryVersion = 1;

/// Append `entry` as one compact line to the JSONL history at `path`,
/// writing the schema header line first when the file is missing or
/// empty. Throws fault::IoError on I/O failure.
void append_history_line(const std::string& path, const Json& entry);

/// Incremental builder for a run report.
class RunReportBuilder {
 public:
  explicit RunReportBuilder(std::string tool);

  /// Add one "config" entry (problem shape, flag values).
  RunReportBuilder& config(const std::string& key, Json value);

  /// Add/replace a top-level section.
  RunReportBuilder& set_section(const std::string& key, Json value);

  /// Finished document (schema/version/tool/config first, then sections
  /// in insertion order).
  Json build() const;

  /// build() + write_json_file.
  void write(const std::string& path, int indent = 1) const;

 private:
  std::string tool_;
  Json config_ = Json::object();
  Json sections_ = Json::object();
};

}  // namespace ardbt::obs
