#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

/// \file trace.hpp
/// Spans recorded by the benchmark around its own calls into the library.
/// Each span has a name ("<layer>.<call>"), an id, the id of the span that
/// caused it (0 for a root) and wall start/end. Spans stay in memory and
/// are written out once, at exit.

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  int thread = 0;   ///< 0 = caller thread, r + 1 = rank r
  double count = 1; ///< calls the span covers (kernel probes time batches)
  double dur() const { return t1 - t0; }
};

/// Thread-safe in-memory span store. A null Tracer* disables tracing at
/// every call site, which is how the untraced runs measure.
class Tracer {
 public:
  std::uint64_t begin(const std::string& name, std::uint64_t parent, int thread = 0) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.t0 = t;
    s.thread = thread;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void end(std::uint64_t id, double count = 1) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[id - 1];
    s.t1 = t;
    s.count = count;
  }

  /// Chrome trace-event JSON ("X" events, microseconds). Call after every
  /// recording thread has been joined.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<Span>& all = spans_;
    const double origin = all.empty() ? 0.0 : all.front().t0;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu,\"count\":%.0f}}%s\n",
                   s.name.c_str(), s.thread, (s.t0 - origin) * 1e6, s.dur() * 1e6,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.count,
                   i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::uint64_t parent = 0, int thread = 0)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, parent, thread) : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_, count_);
  }
  std::uint64_t id() const { return id_; }
  void set_count(double count) { count_ = count; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
  double count_ = 1;
};

}  // namespace perfbench
