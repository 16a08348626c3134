#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/fault/status.hpp"

/// \file sink.hpp
/// Line-oriented output sinks for the live-telemetry subsystem. Every
/// emitter in src/obs/live (structured log, metric snapshot stream)
/// renders one self-contained JSON document per line and hands it to a
/// LineSink — so the same record can go to a JSONL file (`--live-out`),
/// stderr, or an in-memory buffer in tests without the emitters knowing.
///
/// Sinks are not thread-safe; all live emitters run on the driver thread
/// (the engine's rank threads never write a sink directly — they feed the
/// FlightRecorder's per-rank channels instead, see recorder.hpp).

namespace ardbt::obs::live {

/// One JSONL output destination.
class LineSink {
 public:
  virtual ~LineSink() = default;
  /// Write one complete JSON document (no trailing newline in `line`).
  virtual void write_line(std::string_view line) = 0;
  virtual void flush() {}
};

/// Appends lines to a file opened at construction (truncating).
/// Throws fault::IoError when the file cannot be opened.
class FileSink : public LineSink {
 public:
  explicit FileSink(const std::string& path) : file_(std::fopen(path.c_str(), "w")) {
    if (file_ == nullptr) throw fault::IoError("FileSink: cannot open", path);
  }
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;
  ~FileSink() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  void write_line(std::string_view line) override {
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
  }
  void flush() override { std::fflush(file_); }

 private:
  std::FILE* file_ = nullptr;
};

/// Writes lines to stderr (structured warnings on a terminal).
class StderrSink : public LineSink {
 public:
  void write_line(std::string_view line) override {
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fputc('\n', stderr);
  }
};

/// Collects lines in memory (tests, postmortem assembly).
class MemorySink : public LineSink {
 public:
  void write_line(std::string_view line) override { lines_.emplace_back(line); }
  const std::vector<std::string>& lines() const { return lines_; }
  void clear() { lines_.clear(); }

 private:
  std::vector<std::string> lines_;
};

/// Swallows everything (telemetry attached for its counters/recorder
/// only, e.g. `--postmortem` without `--live-out`).
class NullSink : public LineSink {
 public:
  void write_line(std::string_view) override {}
};

/// Fan-out to several sinks (file + stderr). Does not own its targets.
class TeeSink : public LineSink {
 public:
  explicit TeeSink(std::vector<LineSink*> sinks) : sinks_(std::move(sinks)) {}

  void write_line(std::string_view line) override {
    for (LineSink* s : sinks_) s->write_line(line);
  }
  void flush() override {
    for (LineSink* s : sinks_) s->flush();
  }

 private:
  std::vector<LineSink*> sinks_;
};

}  // namespace ardbt::obs::live
