// Wall-clock end-to-end benchmark of the ARD stack (README.md).
//
//   perfbench_e2e --workload timestep|refactor|service --seed N --seconds S
//                 --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same workload with spans around every call the benchmark makes
// into the library, plus the per-layer probes, and reports the per-layer
// metrics. The last stdout line is one JSON object: correct, attempted,
// failed, metrics. Any failed check makes the exit code 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload timestep|refactor|service "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || !(v >= 0.0)) {
    usage(flag + " expects a nonnegative number, got '" + text + "'");
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(parse_number(flag, value));
    } else if (flag == "--seconds") {
      a.seconds = parse_number(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (a.workload != "timestep" && a.workload != "refactor" && a.workload != "service") {
    usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

WorkloadResult run(const std::string& workload, const RunOptions& opts) {
  if (workload == "timestep") return run_timestep(opts);
  if (workload == "refactor") return run_refactor(opts);
  return run_service(opts);
}

/// What one timed operation of each workload is.
const char* op_name(const std::string& workload) {
  if (workload == "timestep") return "solve";
  if (workload == "refactor") return "step";
  return "batch";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Size in KiB of the level-`level` unified/data cache of CPU 0 (0 if unknown).
long cache_kib(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream lv(dir + "/level"), ty(dir + "/type"), sz(dir + "/size");
    int l = 0;
    std::string type, size;
    if (!(lv >> l) || !(ty >> type) || !(sz >> size)) continue;
    if (l != level || type == "Instruction") continue;
    long kib = std::strtol(size.c_str(), nullptr, 10);
    if (!size.empty() && size.back() == 'M') kib *= 1024;
    return kib;
  }
  return 0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += json_str(name) + ": {\"value\": " + json_num(metric.value) +
           ", \"unit\": " + json_str(metric.unit) + "}";
  }
  return out + "}";
}

/// End-to-end metrics of an untraced run; `info` gets the descriptive
/// extras (tail percentile, sample counts, per-workload metric names).
Metrics end_to_end(const std::string& workload, const WorkloadResult& r, std::string& info) {
  Metrics m;
  const Tail tail = nearest_rank_tail(r.op_s);
  const Quartiles q = quartiles(r.op_s);
  m["setup_s"] = {median(r.setup_s), "s"};
  m["op_ms"] = {q.q2 * 1e3, "ms"};
  m["cols_per_s"] = {r.loop_wall_s > 0.0 ? r.columns / r.loop_wall_s : 0.0, "1/s"};
  m["rss_mb"] = {peak_rss_mib(), "MiB"};
  const std::string op = op_name(workload);
  info += ", \"op\": " + json_str(op) + ", \"op_samples\": " + std::to_string(r.op_s.size()) +
          ", \"op_iqr_frac\": " + json_num(q.spread()) +
          ", \"op_tail_percentile\": " + json_num(tail.percentile) +
          ", \"fail_frac\": " + json_num(fail_frac(r.failed, r.attempted)) +
          ", \"model_ms\": " + json_num(r.model_s * 1e3) +
          ", \"working_set_bytes\": " + std::to_string(r.working_set_bytes);
  // The per-workload names of the generic metrics.
  const std::string p50 = workload == "service" ? "batch_p50_ms" : op + "_ms";
  const std::string tl = op + "_tail_ms";
  info += ", " + json_str(p50) + ": " + json_num(m["op_ms"].value) + ", " + json_str(tl) + ": " +
          json_num((tail.valid ? tail.value : q.q3) * 1e3);
  if (workload == "service") info += ", \"serve_rps\": " + json_num(m["cols_per_s"].value);
  return m;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);

  const long l2 = cache_kib(2);
  const long l3 = cache_kib(3);
  std::string info = "{\"workload\": " + json_str(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + json_num(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"l2_kib\": " + std::to_string(l2) + ", \"llc_kib\": " +
                     std::to_string(l3 > 0 ? l3 : l2) +
                     ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
                     ", \"cxx_flags\": " + json_str(PERFBENCH_CXX_FLAGS) +
                     ", \"compiler\": " + json_str(PERFBENCH_COMPILER) +
                     ", \"ranks\": " + std::to_string(kRanks) +
                     ", \"threads_per_rank\": " + std::to_string(kThreadsPerRank) +
                     ", \"cost_model\": " + json_str(session_config().engine.cost.name) +
                     ", \"timing\": \"charged-flops\"";

  WorkloadResult result;
  Metrics metrics;
  try {
    if (!args.trace) {
      result = run(args.workload, {args.seed, args.seconds, nullptr});
      metrics = end_to_end(args.workload, result, info);
    } else {
      Tracer tracer;
      // Half the time untraced, half traced: their medians give the
      // tracing overhead.
      const WorkloadResult plain = run(args.workload, {args.seed, args.seconds / 2, nullptr});
      result = run(args.workload, {args.seed, args.seconds / 2, &tracer});
      result.attempted += plain.attempted;
      result.failed += plain.failed;
      result.notes.insert(result.notes.end(), plain.notes.begin(), plain.notes.end());
      metrics = result.layer;
      metrics["trace.overhead_frac"] = {median(result.op_s) / median(plain.op_s) - 1.0, "ratio"};
      // The tail repeats too loosely across runs to carry a bound, so it
      // is a per-layer number, taken from the untraced half.
      const Tail tail = nearest_rank_tail(plain.op_s);
      metrics["op_tail_ms"] = {(tail.valid ? tail.value : quartiles(plain.op_s).q3) * 1e3, "ms"};
      info += ", \"op_tail_percentile\": " + json_num(tail.percentile) +
              ", \"op_samples\": " + std::to_string(plain.op_s.size());
      probe_layers(args.workload, {args.seed, args.seconds, &tracer}, result, metrics);
      if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
        result.fail("could not write the trace to " + args.trace_out);
      }
    }
  } catch (const std::exception& e) {
    result.fail(std::string("uncaught: ") + e.what());
  }

  for (const std::string& note : result.notes) std::fprintf(stderr, "FAIL: %s\n", note.c_str());
  for (const auto& [name, metric] : metrics) {
    std::printf("%-28s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("%s}\n", info.c_str());
  const bool correct = result.failed == 0 && result.attempted > 0;
  // A run that failed before its first operation still attempted one.
  const std::uint64_t attempted = std::max<std::uint64_t>({result.attempted, result.failed, 1});
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(result.failed), metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}
