// perfbench_bin: runs one benchmark workload and prints its result.
//
//   perfbench_bin --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--trace-out <file>] [--smoke]
//                 [--perturb-oracle]
//
// Standard output ends with an environment line ("perfbench-env {...}")
// and, last, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the per-layer ones. perfbench/run.py
// builds this binary and is the entry point to use.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "perfbench_bin: %s\n", why);
  return 2;
}

/// Failed operations make a percentile infinite; JSON has no infinity,
/// so such a value is reported as the largest finite double.
double Finite(double v) { return std::isfinite(v) ? v : 1.7976931348623157e308; }

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.start_ns = perfbench::NowNs();
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--perturb-oracle") {
      config.perturb_oracle = true;
    } else if (value == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = value, have_workload = true, ++i;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10), have_seed = true, ++i;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr), have_seconds = true, ++i;
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "1") == 0, have_trace = true, ++i;
    } else if (arg == "--work-dir") {
      config.work_dir = value, ++i;
    } else if (arg == "--trace-out") {
      config.trace_path = value, ++i;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || config.work_dir.empty()) {
    return Usage("--workload, --seed, --seconds, --trace and --work-dir are required");
  }
  const auto& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");
  const std::string guard = perfbench::TimingGuardError();
  if (!guard.empty()) return Usage(("refusing to measure: " + guard).c_str());
  mkdir(config.work_dir.c_str(), 0755);
  config.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  const perfbench::RunOutcome out = perfbench::RunWorkload(config);
  for (const std::string& p : out.problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());

  std::printf("perfbench-env %s\n",
              perfbench::EnvStampJson(config.workload, config.seed, config.threads,
                                      out.page_size)
                  .c_str());
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : out.metrics.items()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", Finite(m.value));
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
