// The three benchmark workloads (see perfbench/README.md for why each
// exists) behind one entry point. Every workload is driven through the
// library's public calls by a single closed-loop client.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny datasets and short passes: the self-test's smoke runs.
  bool smoke = false;
  /// Corrupts one sampled answer before the oracle sees it, so the
  /// self-test can prove the oracle flags a wrong answer.
  bool perturb_oracle = false;
  /// Directory for this run's store files (removed by the caller).
  std::string work_dir;
  /// Where the traced pass writes its spans (CSV); empty: not written.
  std::string trace_path;
  /// Build worker count (at most nproc).
  int threads = 1;
  /// Steady-clock time the run started at: the passes stop early when the
  /// run nears its wall-clock limit (see workloads.cc).
  int64_t start_ns = 0;
};

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced pass) or per-layer metrics (trace run).
  MetricList metrics;
  /// One line per failed check (why `correct` is false).
  std::vector<std::string> problems;
  size_t page_size = 0;
};

/// Names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

RunOutcome RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
