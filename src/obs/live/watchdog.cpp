#include "src/obs/live/watchdog.hpp"

#include <algorithm>
#include <cstdio>

namespace ardbt::obs::live {
namespace {

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

Watchdogs::Watchdogs(WatchdogOptions options, Log* log, MetricsRegistry* metrics,
                     FlightRecorder* recorder)
    : options_(options), log_(log), metrics_(metrics), recorder_(recorder) {}

void Watchdogs::raise(fault::AlertKind kind, double vtime_s, std::string message, Json fields) {
  ++alerts_raised_;
  const std::string name(fault::to_string(kind));
  if (metrics_ != nullptr) {
    metrics_->counter("watchdog.alerts").add(std::uint64_t{1});
    metrics_->counter("watchdog." + name).add(std::uint64_t{1});
  }
  if (log_ != nullptr) {
    fields.set("alert", name);
    log_->warn("watchdog." + name, message, vtime_s, std::move(fields));
  }
  if (recorder_ != nullptr) {
    // AlertKind names are static storage; safe to hand the recorder.
    recorder_->note_anomaly(fault::to_string(kind).data(), vtime_s, message);
  }
  if (alerts_.size() < kMaxKeptAlerts) {
    alerts_.push_back(Alert{kind, vtime_s, std::move(message)});
  }
}

std::size_t Watchdogs::check_ranks(const std::vector<RankSample>& samples, double vtime_s) {
  std::size_t raised = 0;
  if (samples.empty()) return raised;

  std::vector<double> fractions;
  fractions.reserve(samples.size());
  for (const RankSample& s : samples) {
    fractions.push_back(s.virtual_time > 0.0 ? s.virtual_wait / s.virtual_time : 0.0);
  }
  std::vector<double> sorted = fractions;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];

  std::uint64_t total_misses = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const RankSample& s = samples[i];
    total_misses += s.deadline_misses;
    const double frac = fractions[i];
    if (frac >= options_.straggler_min_wait_fraction &&
        frac > options_.straggler_factor * median) {
      Json fields = Json::object();
      fields.set("rank", s.rank);
      fields.set("wait_fraction", frac);
      fields.set("median_wait_fraction", median);
      raise(fault::AlertKind::kStraggler, vtime_s,
            "rank " + std::to_string(s.rank) + " wait fraction " + format_double(frac) +
                " vs fleet median " + format_double(median),
            std::move(fields));
      ++raised;
    }
  }
  if (total_misses > 0) {
    Json fields = Json::object();
    fields.set("deadline_misses", total_misses);
    raise(fault::AlertKind::kDeadlineMiss, vtime_s,
          std::to_string(total_misses) + " receive deadline miss(es) during the run",
          std::move(fields));
    ++raised;
  }
  return raised;
}

std::size_t Watchdogs::check_arena_growth(const char* name, std::uint64_t grown_allocs,
                                          double vtime_s) {
  if (grown_allocs == 0) return 0;
  Json fields = Json::object();
  fields.set("arena", name);
  fields.set("grown_allocs", grown_allocs);
  raise(fault::AlertKind::kArenaPressure, vtime_s,
        std::string("arena '") + name + "' grew by " + std::to_string(grown_allocs) +
            " slab allocation(s) after steady state",
        std::move(fields));
  return 1;
}

std::size_t Watchdogs::check_cost(const std::vector<CostVerdict>& verdicts, double vtime_s) {
  std::size_t raised = 0;
  for (const CostVerdict& v : verdicts) {
    if (!v.flagged) continue;
    Json fields = Json::object();
    fields.set("phase", v.phase);
    fields.set("measured_s", v.measured_s);
    fields.set("predicted_s", v.predicted_s);
    fields.set("ratio", v.ratio);
    raise(fault::AlertKind::kCostModelDrift, vtime_s,
          "phase '" + v.phase + "' measured/predicted ratio " + format_double(v.ratio) +
              " outside threshold",
          std::move(fields));
    ++raised;
  }
  return raised;
}

std::size_t Watchdogs::check_service(std::uint64_t offered, std::uint64_t shed,
                                     std::uint64_t breaker_trips, double vtime_s) {
  std::size_t raised = 0;
  if (offered > 0 && shed > 0) {
    const double frac = static_cast<double>(shed) / static_cast<double>(offered);
    if (frac >= options_.shed_storm_fraction) {
      Json fields = Json::object();
      fields.set("offered", offered);
      fields.set("shed", shed);
      fields.set("fraction", frac);
      raise(fault::AlertKind::kShedStorm, vtime_s,
            "admission shed " + format_double(100.0 * frac) + "% of offered columns",
            std::move(fields));
      ++raised;
    }
  }
  for (std::uint64_t i = 0; i < breaker_trips; ++i) {
    Json fields = Json::object();
    fields.set("trip", i + 1);
    fields.set("trips_total", breaker_trips);
    raise(fault::AlertKind::kBreakerTrip, vtime_s,
          "tenant circuit breaker trip " + std::to_string(i + 1) + " of " +
              std::to_string(breaker_trips),
          std::move(fields));
    ++raised;
  }
  return raised;
}

std::size_t Watchdogs::check_trace_drops(std::uint64_t dropped, double vtime_s) {
  if (dropped == 0) return 0;
  Json fields = Json::object();
  fields.set("dropped_events", dropped);
  raise(fault::AlertKind::kTraceDrop, vtime_s,
        std::to_string(dropped) + " trace event(s) dropped by bounded rings", std::move(fields));
  return 1;
}

}  // namespace ardbt::obs::live
