#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "storage/page_manager.h"

namespace perfbench {

namespace {

double NearestRank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

void Samples::AddFailure() { Add(std::numeric_limits<double>::infinity()); }

double Samples::Mean() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return values_.empty() ? 0.0 : s / static_cast<double>(values_.size());
}

double Samples::Percentile(double p) const { return NearestRank(values_, p); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void MetricList::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

uvd::Stats DeltaStats(const uvd::Stats& after, const uvd::Stats& before) {
  uvd::Stats d;
  for (uint32_t i = 0; i < static_cast<uint32_t>(uvd::Ticker::kNumTickers); ++i) {
    const auto t = static_cast<uvd::Ticker>(i);
    d.Add(t, after.Get(t) - before.Get(t));
  }
  return d;
}

int Tracer::NameId(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

int Tracer::Begin(int name, int parent, uint32_t request) {
  const int64_t now = NowNs();
  return Add(name, parent, request, now, now);
}

int Tracer::Add(int name, int parent, uint32_t request, int64_t start_ns,
                int64_t end_ns) {
  spans_.push_back({name, parent, request, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<int64_t> Tracer::SelfTimesNs() const {
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<size_t>(s.parent)] += hi - lo;
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = std::max<int64_t>(0, spans_[i].end_ns - spans_[i].start_ns - covered[i]);
  }
  return self;
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%d,%u\n", names_[static_cast<size_t>(s.name)].c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

namespace {

std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string EnvStampJson(const std::string& workload, uint64_t seed, int threads,
                         size_t page_size) {
  std::ostringstream o;
  o << "{\"workload\": \"" << JsonEscape(workload) << "\", \"seed\": " << seed
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"compiler\": \"" << JsonEscape(CompilerString()) << "\""
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
#if defined(__OPTIMIZE__)
    << ", \"optimized\": true"
#else
    << ", \"optimized\": false"
#endif
    << ", \"simd\": \"" << PERFBENCH_SIMD_LEVEL << "\""
    << ", \"page_size\": " << page_size << ", \"build_threads\": " << threads
    << ", \"serve_threads\": 1, \"clients\": 1"
    << ", \"sim_read_latency_us\": "
    << uvd::storage::PageManager::SimulatedReadLatencyUs() << "}";
  return o.str();
}

std::string TimingGuardError() {
#if !defined(__OPTIMIZE__)
  return "built without optimisation; configure with CMAKE_BUILD_TYPE=Release";
#else
  if (uvd::storage::PageManager::SimulatedReadLatencyUs() != 0) {
    return "simulated read latency is non-zero";
  }
  const char* sim = std::getenv("UVD_SIM_IO_MS");
  if (sim != nullptr && std::strtod(sim, nullptr) != 0.0) {
    return "UVD_SIM_IO_MS is set to a non-zero read charge";
  }
  return "";
#endif
}

}  // namespace perfbench
