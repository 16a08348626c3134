#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/flops.hpp"
#include "src/mpsim/engine.hpp"
#include "src/obs/live/telemetry.hpp"
#include "src/obs/run_report.hpp"

/// \file bench_common.hpp
/// Shared plumbing for the experiment-reproduction binaries (one binary
/// per table/figure of DESIGN.md section 4). Each binary prints the
/// rows/series the paper-style experiment reports; EXPERIMENTS.md records
/// the expected shapes. Every binary parses its command line with
/// bench::Args (so they all accept the same flags, `--json FILE` and
/// `--threads T`, and reject typos with a nearest-flag suggestion) and
/// mirrors its printed tables into an ardbt.run_report v1 document via
/// JsonReport, so plots and CI trend checks parse JSON instead of
/// scraping markdown.

namespace ardbt::bench {

/// Shared command line of every experiment binary:
///   --json FILE    mirror the printed tables into an ardbt.run_report v2
///   --history FILE append the same document as one line of an append-only
///                  ardbt.bench_history JSONL file (the perf-gate baseline
///                  format: the trajectory accumulates one entry per run)
///   --threads T    worker threads per rank for pool-aware sections
///   --smoke        tiny problem shapes, for CI smoke runs
///   --live-out F   stream live telemetry (ardbt.log + metric snapshots,
///                  JSONL) to F while the experiment's sessions run
///   --live-period S  virtual seconds between metric snapshots (0 = one
///                  snapshot after every engine run)
///   --help/--list  usage
/// Unknown flags exit(2) with a nearest-flag suggestion (edit distance),
/// matching the ardbt CLI's behavior; malformed numeric values take the
/// structured `error: [invalid-argument]` path with exit 1.
class Args {
 public:
  Args(int argc, char** argv) : program_(argc > 0 ? argv[0] : "bench") {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) die(flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--help" || flag == "--list") {
        std::printf("usage: %s [--json FILE] [--history FILE] [--threads T] [--smoke]\n",
                    program_.c_str());
        std::exit(0);
      } else if (flag == "--json") {
        json_path_ = next();
      } else if (flag == "--history") {
        history_path_ = next();
      } else if (flag == "--threads") {
        threads_ = parse_positive_int(flag, next());
      } else if (flag == "--live-out") {
        live_out_ = next();
      } else if (flag == "--live-period") {
        live_period_ = parse_nonnegative_double(flag, next());
      } else if (flag == "--smoke") {
        smoke_ = true;
      } else {
        die_unknown(flag);
      }
    }
  }

  const std::string& json_path() const { return json_path_; }
  const std::string& history_path() const { return history_path_; }
  /// Worker threads per rank (EngineOptions::threads_per_rank).
  int threads() const { return threads_; }
  /// Shrink the sweep to a seconds-scale shape (ctest smoke runs).
  bool smoke() const { return smoke_; }
  /// Live-telemetry JSONL path ("" = off); see LiveStream below.
  const std::string& live_out() const { return live_out_; }
  /// Virtual seconds between metric snapshots (0 = one per engine run).
  double live_period() const { return live_period_; }

 private:
  static constexpr const char* kFlags[] = {"--json",     "--history",     "--threads",
                                           "--live-out", "--live-period", "--smoke",
                                           "--help",     "--list"};

  /// Strict parse of a positive integer flag value: the whole token must
  /// be a decimal number >= 1. Garbage, zero, and negative values take
  /// the structured error path (exit 1), matching the ardbt CLI.
  int parse_positive_int(const std::string& flag, const std::string& text) const {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE || v < 1 ||
        v > std::numeric_limits<int>::max()) {
      std::fprintf(stderr, "%s: error: [invalid-argument] %s expects a positive integer, got '%s'\n",
                   program_.c_str(), flag.c_str(), text.c_str());
      std::exit(1);
    }
    return static_cast<int>(v);
  }

  /// Strict parse of a nonnegative double flag value.
  double parse_nonnegative_double(const std::string& flag, const std::string& text) const {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE || v < 0.0 || !std::isfinite(v)) {
      std::fprintf(stderr,
                   "%s: error: [invalid-argument] %s expects a nonnegative number, got '%s'\n",
                   program_.c_str(), flag.c_str(), text.c_str());
      std::exit(1);
    }
    return v;
  }

  [[noreturn]] void die(const std::string& message) const {
    std::fprintf(stderr, "%s: %s (try --help)\n", program_.c_str(), message.c_str());
    std::exit(2);
  }

  /// Classic dynamic-programming edit distance, for flag suggestions.
  static std::size_t edit_distance(const std::string& a, const std::string& b) {
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      std::size_t diag = row[0];
      row[0] = i;
      for (std::size_t j = 1; j <= b.size(); ++j) {
        const std::size_t up = row[j];
        const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
        row[j] = std::min({row[j - 1] + 1, up + 1, sub});
        diag = up;
      }
    }
    return row[b.size()];
  }

  [[noreturn]] void die_unknown(const std::string& flag) const {
    const char* best = nullptr;
    std::size_t best_dist = flag.size();  // suggest only when reasonably close
    for (const char* candidate : kFlags) {
      const std::size_t d = edit_distance(flag, candidate);
      if (d < best_dist) {
        best_dist = d;
        best = candidate;
      }
    }
    std::string message = "unknown flag '" + flag + "'";
    if (best != nullptr && best_dist <= 3) {
      message += "; did you mean '" + std::string(best) + "'?";
    }
    die(message);
  }

  std::string program_;
  std::string json_path_;
  std::string history_path_;
  std::string live_out_;
  double live_period_ = 0.0;
  int threads_ = 1;
  bool smoke_ = false;
};

/// Owner for the `--live-out` stream of an experiment binary: one private
/// metrics registry plus the standard live-telemetry chain (structured
/// log, flight recorder, snapshotter, watchdogs) streaming to the flag's
/// JSONL path. Without the flag every method is an inert no-op, so
/// binaries construct one unconditionally and pass handle() to each
/// Session (or the core::solve / core::ard_session conveniences) they
/// drive. close() flushes the log, forces a final metric snapshot, and
/// prints a one-line note; the destructor is the backstop.
class LiveStream {
 public:
  explicit LiveStream(const Args& args) {
    if (args.live_out().empty()) return;
    obs::live::LiveTelemetry::Options options;
    options.live_path = args.live_out();
    options.snapshot.period_s = args.live_period();
    path_ = args.live_out();
    live_ = std::make_unique<obs::live::LiveTelemetry>(std::move(options), &registry_);
  }

  LiveStream(const LiveStream&) = delete;
  LiveStream& operator=(const LiveStream&) = delete;

  ~LiveStream() { close(); }

  bool enabled() const { return live_ != nullptr; }

  /// Handle for Session::set_telemetry (inert default when disabled).
  obs::live::Telemetry handle() {
    return enabled() ? live_->handle() : obs::live::Telemetry{};
  }

  /// Flush and report (idempotent; no-op when disabled).
  void close() {
    if (!enabled() || closed_) return;
    live_->close();
    std::printf("\n[live telemetry: %s (%llu log records, %llu snapshots)]\n", path_.c_str(),
                static_cast<unsigned long long>(live_->log().records_written()),
                static_cast<unsigned long long>(live_->snapshotter().snapshots_written()));
    closed_ = true;
  }

 private:
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::live::LiveTelemetry> live_;
  std::string path_;
  bool closed_ = false;
};

/// Engine options for the virtual-time experiments: deterministic
/// charged-flops timing on the IPDPS-2014-era machine profile, with the
/// flop rate calibrated to this host's dense-kernel throughput so virtual
/// seconds are meaningful. (The host kernel's thread-CPU clock ticks at
/// ~10 ms, too coarse for per-phase measurement, so charged-flops mode is
/// the primary mode; see DESIGN.md substitutions.)
inline mpsim::EngineOptions virtual_engine() {
  static const mpsim::CostModel calibrated =
      core::flops::calibrate_flop_rate(mpsim::CostModel::cluster2014());
  mpsim::EngineOptions options;
  options.cost = calibrated;
  options.timing = mpsim::TimingMode::ChargedFlops;
  return options;
}

/// Wall-clock timer for single-run measurements.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Minimal fixed-width table printer (markdown-ish, easy to diff).
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  void print() const {
    print_row(headers_);
    std::string sep;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      sep += (c == 0 ? "|" : "");
      sep += std::string(width(c) + 2, '-') + "|";
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::size_t width(std::size_t c) const {
    std::size_t w = headers_[c].size();
    for (const auto& row : rows_) {
      if (c < row.size()) w = std::max(w, row[c].size());
    }
    return w;
  }
  void print_row(const std::vector<std::string>& row) const {
    std::string line = "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      line += " " + cell + std::string(width(c) - cell.size(), ' ') + " |";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting helpers.
inline std::string fmt(double v, const char* f = "%.3g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}
inline std::string fmt_int(double v) { return fmt(v, "%.0f"); }
inline std::string fmt_sci(double v) { return fmt(v, "%.2e"); }

/// Machine-readable companion to the printed tables. Construct from the
/// parsed Args: when the binary was invoked with `--json FILE`, every
/// add_table()/config()/set_section() call lands in an ardbt.run_report
/// v2 document written to FILE by write() (or the destructor as a
/// backstop); `--history FILE` appends the same document as one compact
/// line of an append-only ardbt.bench_history JSONL file instead of (or
/// in addition to) overwriting a standalone report. Without either flag
/// everything is a no-op.
class JsonReport {
 public:
  JsonReport(const Args& args, std::string experiment)
      : path_(args.json_path()), history_path_(args.history_path()),
        builder_(std::move(experiment)) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() {
    try {
      write();
    } catch (...) {  // NOLINT(bugprone-empty-catch) — destructor backstop
    }
  }

  bool enabled() const { return !path_.empty() || !history_path_.empty(); }

  JsonReport& config(const std::string& key, obs::Json value) {
    if (enabled()) builder_.config(key, std::move(value));
    return *this;
  }

  JsonReport& set_section(const std::string& key, obs::Json value) {
    if (enabled()) builder_.set_section(key, std::move(value));
    return *this;
  }

  /// Record a printed table as "tables.<name>": one object per row keyed
  /// by column header (cells stay formatted strings — the JSON mirrors
  /// what the human sees).
  JsonReport& add_table(const std::string& name, const Table& table) {
    if (!enabled()) return *this;
    obs::Json rows = obs::Json::array();
    for (const auto& row : table.rows()) {
      obs::Json obj = obs::Json::object();
      for (std::size_t c = 0; c < table.headers().size(); ++c) {
        obj.set(table.headers()[c], c < row.size() ? obs::Json(row[c]) : obs::Json());
      }
      rows.push(std::move(obj));
    }
    tables_.set(name, std::move(rows));
    return *this;
  }

  /// Write the report (idempotent; no-op without --json/--history).
  void write() {
    if (!enabled() || written_) return;
    if (tables_.size() > 0) builder_.set_section("tables", tables_);
    if (!path_.empty()) {
      builder_.write(path_);
      std::printf("\n[json report: %s]\n", path_.c_str());
    }
    if (!history_path_.empty()) {
      obs::append_history_line(history_path_, builder_.build());
      std::printf("\n[bench history: appended to %s]\n", history_path_.c_str());
    }
    written_ = true;
  }

 private:
  std::string path_;
  std::string history_path_;
  obs::RunReportBuilder builder_;
  obs::Json tables_ = obs::Json::object();
  bool written_ = false;
};

}  // namespace ardbt::bench
