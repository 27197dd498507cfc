// Lightweight scoped-span tracing exported as Chrome trace-event JSON
// (viewable in Perfetto / chrome://tracing). The paper's Figs. 6(c) and
// 7(d)/(e) are phase breakdowns; UVD_TRACE_SPAN generalizes them to a real
// timeline — per-worker stage-1/stage-2 spans during construction, and
// locate-leaf / cache-lookup / read-leaf / qualification phases per query.
//
// Cost model:
//   * Tracing is DISABLED by default. The macro's fast path is one relaxed
//     atomic load and a branch; no clock is read and nothing is written.
//   * Enabled, a span is two steady_clock reads plus one ring-buffer push
//     under the calling thread's own (uncontended) ring mutex. PhaseClock
//     traces consecutive phases with one read per boundary.
//   * Defining UVD_DISABLE_TRACING at compile time removes the spans from
//     the binary entirely — the hot path is untouched by construction.
//
// Every thread records into its own fixed-capacity ring (registered on
// first use; the ring overwrites its oldest events when full and counts
// the drops), so recording never blocks on another thread. Export walks
// the rings in registration order. Tracing is purely observational:
// serialized indexes and query answers are bitwise-identical with tracing
// on or off (digest-asserted in tests/obs/obs_determinism_test.cc).
#ifndef UVD_OBS_TRACE_RECORDER_H_
#define UVD_OBS_TRACE_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace uvd {
namespace obs {

/// One completed span ("ph": "X" in the Chrome trace format). `name` and
/// `category` must be string literals (stored by pointer, never copied).
struct TraceEvent {
  const char* category = nullptr;
  const char* name = nullptr;
  uint64_t start_us = 0;     ///< NowMicros() at span entry.
  uint64_t duration_us = 0;  ///< Span wall time.
};

/// \brief Per-thread ring buffers of spans with Chrome trace-event export.
///
/// The process-global instance (Global()) is what UVD_TRACE_SPAN records
/// into; tests may construct private recorders. Thread ids in the export
/// are assigned in ring-registration order (0, 1, ...), so single-threaded
/// recordings export deterministically.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultRingCapacity = 1 << 15;  // events/thread

  explicit TraceRecorder(size_t ring_capacity = kDefaultRingCapacity);

  /// The recorder UVD_TRACE_SPAN writes to.
  static TraceRecorder& Global();

  /// Master switch for the span macro (relaxed atomic; off by default).
  /// Spans opened while disabled record nothing even if tracing is
  /// re-enabled before they close.
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends a completed span to the calling thread's ring (registering
  /// the ring on first use). Safe for concurrent callers; when the ring is
  /// full the oldest event is overwritten and `dropped()` grows.
  void Record(const char* category, const char* name, uint64_t start_us,
              uint64_t duration_us);
  /// Appends `n` completed spans in order, under one lock.
  void Record(const TraceEvent* events, size_t n);

  /// Drops every recorded event (rings stay registered and keep their
  /// thread ids; the drop counter resets).
  void Clear();

  /// Events currently held across all rings.
  size_t event_count() const;
  /// Events overwritten because a ring was full.
  uint64_t dropped() const;
  /// Rings registered so far (one per recording thread).
  size_t thread_count() const;

  /// The Chrome trace-event document: {"traceEvents": [...]} with one
  /// "ph":"X" entry per span (ts/dur in microseconds), ordered by thread
  /// registration then record order. Loadable directly in Perfetto.
  std::string ToChromeTraceJson() const;

  /// Writes ToChromeTraceJson() to `path`.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Ring {
    mutable Mutex mu;
    // tid and owner are written once at registration (under the
    // recorder's registry_mu_, before the ring is published) and
    // immutable afterwards; the analysis cannot name an outer-instance
    // mutex from a nested struct, so they stay unannotated by design.
    uint32_t tid = 0;
    std::thread::id owner;  // registering thread (lookup key)
    std::vector<TraceEvent> events UVD_GUARDED_BY(mu);  // capacity-bounded
    size_t next UVD_GUARDED_BY(mu) = 0;     // write cursor
    size_t size UVD_GUARDED_BY(mu) = 0;     // events held (<= capacity)
    uint64_t dropped UVD_GUARDED_BY(mu) = 0;
  };

  Ring* RingForThisThread() UVD_EXCLUDES(registry_mu_);

  static std::atomic<bool> enabled_;

  size_t ring_capacity_;
  mutable Mutex registry_mu_;  // guards rings_ growth
  std::vector<std::unique_ptr<Ring>> rings_ UVD_GUARDED_BY(registry_mu_);
};

/// RAII span: captures the clock at construction (when tracing is enabled)
/// and records a TraceEvent at destruction. Nest freely; concurrent spans
/// on different threads record into different rings.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name) {
    if (TraceRecorder::Enabled()) {
      category_ = category;
      name_ = name;
      start_us_ = NowMicrosForTrace();
    }
  }
  ~TraceSpan() {
    if (category_ != nullptr) {
      TraceRecorder::Global().Record(category_, name_, start_us_,
                                     NowMicrosForTrace() - start_us_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  static uint64_t NowMicrosForTrace();

  const char* category_ = nullptr;  // null: span inactive (tracing was off)
  const char* name_ = nullptr;
  uint64_t start_us_ = 0;
};

/// One operation's clock, shared by its latency measurement (`timed`) and
/// its trace phases (when tracing is enabled): the clock is read once at
/// the start, once per phase boundary and once at the end, so an operation
/// timed and traced through n consecutive phases costs n + 1 clock reads
/// instead of 2 + 2n. The phases become adjacent spans, recorded into the
/// calling thread's ring together at Finish; the first one opens at the
/// start. With neither switch on nothing reads the clock.
class PhaseClock {
 public:
  PhaseClock(const char* category, bool timed);

  /// Ends the open phase (if any) and opens `name` (a string literal).
  void Phase(const char* name);

  /// Ends the open phase and records the phases; returns the microseconds
  /// since the start (0 when neither timed nor traced).
  uint64_t Finish();

 private:
  // Ends the open phase at `now_us`.
  void Close(uint64_t now_us);

  const char* category_;  // null: phases are not traced
  bool clocked_;
  uint64_t start_us_ = 0;
  const char* open_ = nullptr;  // the open phase's name
  uint64_t open_start_us_ = 0;
  static constexpr size_t kMaxPhases = 4;  // closed phases buffered
  std::array<TraceEvent, kMaxPhases> closed_{};
  size_t num_closed_ = 0;
};

}  // namespace obs
}  // namespace uvd

#define UVD_OBS_CONCAT_IMPL(a, b) a##b
#define UVD_OBS_CONCAT(a, b) UVD_OBS_CONCAT_IMPL(a, b)

/// Scoped span macro. `category` and `name` must be string literals.
/// Compiles to nothing under UVD_DISABLE_TRACING; otherwise costs one
/// relaxed load when tracing is disabled at runtime (the default).
#if defined(UVD_DISABLE_TRACING)
#define UVD_TRACE_SPAN(category, name) \
  do {                                 \
  } while (false)
#else
#define UVD_TRACE_SPAN(category, name) \
  ::uvd::obs::TraceSpan UVD_OBS_CONCAT(uvd_trace_span_, __LINE__)(category, name)
#endif

#endif  // UVD_OBS_TRACE_RECORDER_H_
