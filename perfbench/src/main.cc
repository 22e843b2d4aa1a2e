// The repo benchmark's entry point.
//
//   perfbench --workload <audited-session|bulk-exchange|query-mix|sweep-drain>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--rev <source revision>]
//             [--trace-dir <dir>] [--work-dir <dir>]
//   perfbench --self-test
//
// Prints a provenance line, the workload's named end-to-end metrics with
// units, distribution lines (median, quartiles, sample count, tail) and,
// as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are BENCHMARK.json's end-to-end set (trace 0) or the
// per-layer set (trace 1). Exits nonzero on any wrong result.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/simd_dispatch.h"
#include "harness.h"

namespace {

using namespace perfbench;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--rev REV]\n"
               "       perfbench --self-test\n",
               why);
  std::exit(2);
}

/// This process's peak resident set (VmHWM). Not getrusage's ru_maxrss:
/// that keeps the high-water mark of the image the process was forked
/// from, so a small workload would report its launcher's size.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string LaneName() {
  auto lane = hsis::common::ActiveSimdLane();
  return lane.ok() ? hsis::common::SimdLaneName(*lane) : "invalid";
}

/// Prints `value` with every digit it has, as JSON needs it.
void PrintNumber(double value) { std::printf("%.17g", value); }

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to report from an unoptimized build "
               "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  Options options;
  bool self_test = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) Usage("bad --seconds");
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--rev") {
      options.rev = value;
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }

  std::printf("provenance: nproc=%d lane=%s compiler=\"%s\" build=%s "
              "rev=%s workload=%s seed=%llu seconds=%g trace=%d\n",
              Nproc(), LaneName().c_str(), __VERSION__, PERFBENCH_BUILD_TYPE,
              options.rev.c_str(),
              self_test ? "self-test" : options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
  if (self_test) return RunSelfTest(options);
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }

  if (options.trace) {
    std::error_code ec;
    std::filesystem::create_directories(options.trace_dir, ec);
  }
  Report report;
  if (options.workload == "audited-session") {
    report = RunAuditedSession(options);
  } else if (options.workload == "bulk-exchange") {
    report = RunBulkExchange(options);
  } else if (options.workload == "query-mix") {
    report = RunQueryMix(options);
  } else if (options.workload == "sweep-drain") {
    report = RunSweepDrain(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  const double peak_rss_mb = PeakRssMb();

  report.AddDetail("setup_s", report.setup_s, "s");
  report.AddDetail("peak_rss_mb", peak_rss_mb, "MB");
  report.AddDetail("failed_frac",
                   report.attempted == 0
                       ? 1.0
                       : static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted),
                   "ratio");
  for (const Metric& m : report.detail) {
    std::printf("metric %-24s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& line : report.distributions) {
    std::printf("dist %s\n", line.c_str());
  }
  for (const std::string& error : report.errors) {
    std::printf("WRONG: %s\n", error.c_str());
  }
  if (options.trace) {
    for (const auto* list : {&LayerMetrics(), &DrainLayerMetrics()}) {
      for (const auto& [name, unit] : *list) {
        const auto it = report.layers.find(name);
        if (it == report.layers.end() && list != &LayerMetrics()) continue;
        std::printf("layer %-28s %.6g %s\n", name.c_str(),
                    it == report.layers.end() ? 0.0 : it->second,
                    unit.c_str());
      }
    }
  }

  const bool correct = report.correct() && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    PrintNumber(value);
    std::printf(", \"unit\": \"%s\"}", unit.c_str());
    first = false;
  };
  if (options.trace) {
    for (const auto& [name, unit] : LayerMetrics()) {
      const auto it = report.layers.find(name);
      emit(name, it == report.layers.end() ? 0.0 : it->second, unit);
    }
  } else {
    emit("setup_s", report.setup_s, "s");
    emit("peak_rss_mb", peak_rss_mb, "MB");
    emit("throughput_per_s", report.throughput_per_s, "1/s");
    emit("latency_ms_p50", report.latency_ms_p50, "ms");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
