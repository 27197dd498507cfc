// Measurement plumbing shared by the perfbench workloads: latency samples
// with percentiles, the in-memory span recorder of the traced pass, the
// metric list a run reports, and the environment stamp. Nothing here calls
// into the library except the Stats snapshot helpers.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Latency samples of one operation kind, in microseconds. A failed
/// operation is recorded as +infinity, so it misses every latency limit
/// and drags the percentiles it lands in.
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  void AddFailure();
  size_t size() const { return values_.size(); }
  double Mean() const;
  /// Nearest-rank percentile (p in [0, 100]) over all samples; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<double> values_;
};

/// Median of a small vector (0 when empty).
double Median(std::vector<double> v);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// `after - before` for every ticker.
uvd::Stats DeltaStats(const uvd::Stats& after, const uvd::Stats& before);

/// Ratio with an explicit value for an empty base.
inline double Ratio(double num, double den, double empty = 0.0) {
  return den > 0.0 ? num / den : empty;
}

/// \brief In-memory span store for the traced pass. Spans carry a name,
/// start/end (steady clock, ns), the index of their parent span (-1 for a
/// root) and the id of the request they belong to; they are written out
/// once, at the end of the run.
class Tracer {
 public:
  struct Span {
    int name = 0;
    int parent = -1;
    uint32_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Interns `name`; span names are a small fixed set.
  int NameId(const std::string& name);
  int Begin(int name, int parent, uint32_t request);
  void End(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }
  /// Records an already-timed interval.
  int Add(int name, int parent, uint32_t request, int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(int id) const { return names_[static_cast<size_t>(id)]; }
  size_t num_names() const { return names_.size(); }

  /// Self time of every span: its duration minus the part of its interval
  /// covered by its children.
  std::vector<int64_t> SelfTimesNs() const;

  /// Writes "name,start_ns,end_ns,parent,request" lines.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Peak resident set size of the process, in MiB.
double PeakRssMb();

/// Environment facts every result records (JSON object text).
std::string EnvStampJson(const std::string& workload, uint64_t seed, int threads,
                         size_t page_size);

/// Empty when the build is usable for timing; otherwise why it is not
/// (unoptimised build, simulated read latency switched on).
std::string TimingGuardError();

std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
