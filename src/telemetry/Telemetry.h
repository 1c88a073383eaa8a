//===- telemetry/Telemetry.h - Counters, timers, event tracing -*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead instrumentation for the solvers and simulators: a
/// process-wide Registry of named counters, gauges, histograms and
/// timers; RAII ScopedTimer spans that nest and aggregate wall time per
/// label; and a pluggable structured event sink (JSONL or Chrome
/// trace_event JSON).
///
/// Design constraints, matching the rest of skatsim:
///  - exception-free: fallible operations return Status/Expected;
///  - near-zero cost when no sink is attached. Counters, histograms and
///    timers spread their writes over detail::NumStripes cache-line
///    stripes, one chosen by the writing thread's id, and merge them when
///    read. So a counter bump is a relaxed atomic add on the thread's own
///    stripe, and a histogram sample or a finished span takes only that
///    stripe's lock. Neither takes the registry mutex, and the hot paths
///    allocate nothing;
///  - the registry mutex guards the name maps and the sink. It is taken
///    when a name is looked up, on reads (snapshots, timerStats, JSON,
///    reset), and to call an attached sink, so traced runs still
///    serialize at the sink. Lock order: Registry::Mutex before any
///    stripe lock; no code holds two stripe locks at once;
///  - references returned by Registry::counter()/gauge()/histogram()/
///    timer() stay valid for the registry's lifetime (node-based storage,
///    and resetMetrics() zeroes in place instead of erasing), so call
///    sites resolve a name once into a static local and then update it
///    with no lookup.
///
/// Metric names follow `subsystem.noun.unit` (see docs/OBSERVABILITY.md).
///
//===----------------------------------------------------------------------===//

#ifndef RCS_TELEMETRY_TELEMETRY_H
#define RCS_TELEMETRY_TELEMETRY_H

#include "support/Status.h"
#include "support/ThreadSafety.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rcs {
namespace telemetry {

class Registry;

namespace detail {
/// Stripes per counter, histogram and timer. Fixed, so a metric's memory
/// does not grow with the number of threads that ever wrote it.
inline constexpr unsigned NumStripes = 16;
/// Stripe alignment: one stripe per cache line (or lines), so threads on
/// different stripes never share one.
inline constexpr size_t StripeAlign = 64;
/// Small sequential id of the calling thread (1-based, stable for the
/// thread's lifetime).
uint32_t currentThreadId();
/// The stripe the calling thread writes: its sequential id modulo
/// NumStripes, so up to NumStripes consecutively started threads never
/// share one.
inline unsigned threadStripe() {
  thread_local const unsigned Stripe = currentThreadId() % NumStripes;
  return Stripe;
}
} // namespace detail

/// A monotonically increasing event count. Each thread adds to its own
/// stripe; value() sums them.
class Counter {
public:
  Counter() = default;
  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;

  void add(uint64_t Delta = 1) {
    Stripes[detail::threadStripe()].Value.fetch_add(
        Delta, std::memory_order_relaxed);
  }
  /// The sum over every stripe.
  uint64_t value() const;

private:
  friend class Registry;
  struct alignas(detail::StripeAlign) Stripe {
    std::atomic<uint64_t> Value{0};
  };
  Stripe Stripes[detail::NumStripes];
};

/// A last-value metric (set wins; no aggregation).
class Gauge {
public:
  Gauge() = default;
  Gauge(const Gauge &) = delete;
  Gauge &operator=(const Gauge &) = delete;

  void set(double V) { Value.store(V, std::memory_order_relaxed); }
  double value() const { return Value.load(std::memory_order_relaxed); }

private:
  friend class Registry;
  std::atomic<double> Value{0.0};
};

/// Point-in-time summary of one histogram, percentiles included.
struct HistogramSnapshot {
  uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  double Mean = 0.0;
  double P50 = 0.0;
  double P95 = 0.0;
  double P99 = 0.0;
};

/// A sample distribution: count/sum/min/max plus decade magnitude buckets
/// (coarse, but enough to see whether residuals cluster at 1e-12 or 1e-3).
/// A plain value with no lock of its own: Histogram keeps one per stripe
/// and the Profiler keeps them under its mutex.
class Distribution {
public:
  /// Bucket B spans [10^(B-9), 10^(B-8)); samples at or below 1e-9 in
  /// magnitude (including zero and negatives) clamp into bucket 0, samples
  /// at or above 1e8 into the last bucket.
  static constexpr int NumBuckets = 18;

  void record(double Sample);
  /// Folds \p Other in, as if its samples had been recorded here.
  void merge(const Distribution &Other);

  uint64_t count() const { return Count; }
  double sum() const { return Sum; }
  double mean() const; ///< Zero when empty.
  double minValue() const { return Count == 0 ? 0.0 : Min; }
  double maxValue() const { return Count == 0 ? 0.0 : Max; }
  uint64_t bucketCount(int Bucket) const;

  /// Estimated value at quantile \p Q (in [0, 1]) of the recorded
  /// magnitude distribution: the bucket containing the rank is found and
  /// the position within it log-interpolated, then clamped to the
  /// observed magnitude range [smallest |sample|, largest |sample|], so
  /// constant samples report their value at every quantile. Decade
  /// buckets make this coarse (within a factor of ~2), which is enough to
  /// tell 1e-12 from 1e-3 residuals or 40 C from 90 C junctions. Zero
  /// when empty.
  double quantile(double Q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Count, sum, min, max, mean and the three percentiles at once.
  HistogramSnapshot snapshot() const;

  /// The bucket \p Sample falls into.
  static int bucketFor(double Sample);
  /// Inclusive lower magnitude bound of \p Bucket.
  static double bucketLowerBound(int Bucket);

private:
  uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  double MinAbsSample = 0.0; ///< Smallest |sample|.
  uint64_t Buckets[NumBuckets] = {};
};

/// A thread-safe Distribution: each thread records into its own stripe
/// under that stripe's lock, and every reader merges the stripes.
class Histogram {
public:
  Histogram() = default;
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  void record(double Sample);

  /// Every stripe merged into one distribution; the readers below read
  /// this merge.
  Distribution merged() const;

  uint64_t count() const { return merged().count(); }
  double sum() const { return merged().sum(); }
  double mean() const { return merged().mean(); }
  double minValue() const { return merged().minValue(); }
  double maxValue() const { return merged().maxValue(); }
  uint64_t bucketCount(int Bucket) const {
    return merged().bucketCount(Bucket);
  }
  /// See Distribution::quantile.
  double quantile(double Q) const { return merged().quantile(Q); }
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

private:
  friend class Registry;
  void reset();
  struct alignas(detail::StripeAlign) Stripe {
    mutable rcs::Mutex Mutex;
    Distribution Samples RCS_GUARDED_BY(Mutex);
  };
  Stripe Stripes[detail::NumStripes];
};

/// Aggregated wall time of all spans sharing one label.
struct SpanStats {
  uint64_t Count = 0;
  double TotalS = 0.0;
  double MinS = 0.0;
  double MaxS = 0.0;
};

/// A consistent copy of every metric in a registry, for exposition
/// layers that render formats the registry itself does not know about
/// (Prometheus text, periodic JSONL snapshots).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, double>> Gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> Histograms;
  std::vector<std::pair<std::string, SpanStats>> Timers;
};

/// One key/value field of a structured event. Keys and string values are
/// not copied; they must outlive the emitEvent call (string literals in
/// practice).
struct EventField {
  enum class Kind { Double, Int, Bool, String };

  std::string_view Key;
  Kind FieldKind = Kind::Double;
  double DoubleValue = 0.0;
  long long IntValue = 0;
  bool BoolValue = false;
  std::string_view StringValue;

  EventField() = default;
  EventField(std::string_view Key, double Value)
      : Key(Key), FieldKind(Kind::Double), DoubleValue(Value) {}
  EventField(std::string_view Key, int Value)
      : Key(Key), FieldKind(Kind::Int), IntValue(Value) {}
  EventField(std::string_view Key, long long Value)
      : Key(Key), FieldKind(Kind::Int), IntValue(Value) {}
  EventField(std::string_view Key, unsigned long long Value)
      : Key(Key), FieldKind(Kind::Int),
        IntValue(static_cast<long long>(Value)) {}
  EventField(std::string_view Key, bool Value)
      : Key(Key), FieldKind(Kind::Bool), BoolValue(Value) {}
  EventField(std::string_view Key, std::string_view Value)
      : Key(Key), FieldKind(Kind::String), StringValue(Value) {}
  EventField(std::string_view Key, const char *Value)
      : Key(Key), FieldKind(Kind::String), StringValue(Value) {}
};

/// Causal identity of one span: which trace it belongs to, its own id,
/// and the span it nests under. Ids are process-unique and never zero for
/// a live span; zero means "none" (a root span has ParentId 0, a thread
/// with no open span has SpanId 0). The context propagates through a
/// thread-local (see Span.h) and can be carried across worker threads
/// with ScopedSpanParent, so a sweep replicate on a pool thread still
/// parents under the sweep root.
struct SpanContext {
  uint64_t TraceId = 0;
  uint64_t SpanId = 0;
  uint64_t ParentId = 0;
  /// Nesting depth of this span (0 = root).
  int Depth = 0;
  /// Small sequential id of the thread the span ran on (1-based).
  uint32_t ThreadId = 0;
};

/// Everything known about one completed span, handed to the sink as a
/// unit: timing, causal identity, and the structured attributes the span
/// collected while open. Attrs points into the emitting span's inline
/// storage and is only valid for the duration of the call.
struct SpanRecord {
  double StartS = 0.0;
  double DurationS = 0.0;
  std::string_view Name;
  SpanContext Context;
  /// Thread the parent span ran on (0 when no parent); differs from
  /// Context.ThreadId exactly when the parent was adopted across a
  /// thread boundary.
  uint32_t ParentThreadId = 0;
  const EventField *Attrs = nullptr;
  size_t NumAttrs = 0;
};

/// Destination for structured trace output. Implementations are invoked
/// under the owning registry's lock and must not call back into it.
class EventSink {
public:
  virtual ~EventSink() = default;

  /// An instantaneous event at \p TimeS (seconds since trace start).
  virtual void instant(double TimeS, std::string_view Name,
                       const EventField *Fields, size_t NumFields) = 0;

  /// A completed span with full causal context and attributes.
  virtual void span(const SpanRecord &Rec) = 0;

  /// Flushes and finalizes the output. Idempotent.
  virtual Status close() = 0;
};

/// Opens a JSON-Lines sink writing one event object per line to \p Path.
Expected<std::unique_ptr<EventSink>> makeJsonlSink(const std::string &Path);

/// Opens a Chrome trace_event-format sink (a JSON array loadable in
/// chrome://tracing and Perfetto) writing to \p Path. Spans carry their
/// trace/span/parent ids and attributes in args, land on their real
/// thread track, and cross-thread parent/child edges are drawn as flow
/// arrows.
Expected<std::unique_ptr<EventSink>>
makeChromeTraceSink(const std::string &Path);

/// Opens an OTLP-style span sink: JSON-Lines, one self-identifying
/// header line followed by one object per span/event with hex trace and
/// span ids (docs/OBSERVABILITY.md, "OTLP-style span schema"); validated
/// by tools/check_trace.
Expected<std::unique_ptr<EventSink>>
makeOtlpSpanSink(const std::string &Path);

/// A sink that forwards every call to both \p First and \p Second (close
/// statuses are combined). Lets a profiler observe spans while a trace
/// file is also being written.
std::unique_ptr<EventSink> makeTeeSink(std::unique_ptr<EventSink> First,
                                       std::unique_ptr<EventSink> Second);

/// The wall-time aggregate of every Span and ScopedTimer sharing one
/// label. A finished span folds into the closing thread's stripe under
/// that stripe's lock; stats() merges the stripes. Hot call sites resolve
/// the label once and open their spans on the handle:
///
///   static telemetry::Timer &StepTimer =
///       Telemetry.timer("sim.transient.step");
///   telemetry::Span StepSpan(StepTimer);
class Timer {
public:
  explicit Timer(Registry &Owner) : Owner(Owner) {}
  Timer(const Timer &) = delete;
  Timer &operator=(const Timer &) = delete;

  /// The aggregate over every stripe.
  SpanStats stats() const;

private:
  friend class Registry;
  friend class ScopedTimer;
  friend class Span;

  /// Closes one span opened at \p StartS as \p Context: restores
  /// \p Parent as the thread's current context, folds the duration into
  /// the calling thread's stripe and, when a sink is attached, hands it
  /// the record.
  void closeSpan(double StartS, const SpanContext &Context,
                 const SpanContext &Parent, const EventField *Attrs,
                 size_t NumAttrs);
  void reset();

  Registry &Owner;
  std::string_view Label; ///< Views the owner's key for this timer.
  struct alignas(detail::StripeAlign) Stripe {
    mutable rcs::Mutex Mutex;
    SpanStats Stats RCS_GUARDED_BY(Mutex);
  };
  Stripe Stripes[detail::NumStripes];
};

/// A named-metric registry plus the optional event sink. Thread-safe.
///
/// Use Registry::global() for the process-wide instance the library's
/// instrumentation reports to; independent instances exist for tests.
class Registry {
public:
  Registry();
  ~Registry();
  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  /// The process-wide registry.
  static Registry &global();

  /// Finds or creates the named metric under the registry mutex. The
  /// returned reference stays valid for the registry's lifetime.
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);
  Timer &timer(std::string_view Label);

  /// Snapshot of one timer label's aggregate (zeroes when unknown).
  SpanStats timerStats(std::string_view Label) const;

  /// Seconds elapsed on the monotonic clock since this registry was
  /// created; the timebase of every event timestamp.
  double nowSeconds() const;

  /// True when an event sink is attached. Instrumented code uses this to
  /// skip building event fields entirely when tracing is off.
  bool tracingEnabled() const {
    return TracingOn.load(std::memory_order_relaxed);
  }

  /// Attaches \p NewSink (pass nullptr to detach). A previously attached
  /// sink is closed first; its close status is discarded.
  void setSink(std::unique_ptr<EventSink> NewSink);

  /// Flushes and detaches the active sink. No-op without one.
  Status closeSink();

  /// Emits an instantaneous structured event; a cheap no-op when no sink
  /// is attached.
  void emitEvent(std::string_view Name,
                 std::initializer_list<EventField> Fields);

  /// Copies every metric (counters, gauges, histogram summaries with
  /// percentiles, timer aggregates) into one consistent snapshot.
  MetricsSnapshot snapshotMetrics() const;

  /// Renders every metric (counters, gauges, histograms, timer
  /// aggregates) as one JSON object.
  std::string metricsJson() const;

  /// Writes metricsJson() to \p Path.
  Status writeMetricsFile(const std::string &Path) const;

  /// Zeroes every metric in place. Cached references remain valid; the
  /// event sink is untouched. Intended for tests and for the CLI between
  /// subcommands.
  void resetMetrics();

private:
  friend class Timer;

  /// Hands \p Rec to the attached sink, if any, under the registry mutex.
  void emitSpan(const SpanRecord &Rec);

  // Lock order: Registry::Mutex before any stripe lock (snapshots, reset
  // and timerStats hold both); nothing locks them the other way.
  mutable rcs::Mutex Mutex;
  std::map<std::string, Counter, std::less<>> Counters
      RCS_GUARDED_BY(Mutex);
  std::map<std::string, Gauge, std::less<>> Gauges RCS_GUARDED_BY(Mutex);
  std::map<std::string, Histogram, std::less<>> Histograms
      RCS_GUARDED_BY(Mutex);
  std::map<std::string, Timer, std::less<>> Timers RCS_GUARDED_BY(Mutex);
  std::unique_ptr<EventSink> Sink RCS_GUARDED_BY(Mutex);
  std::atomic<bool> TracingOn{false};
  std::chrono::steady_clock::time_point Epoch; ///< Immutable after init.
};

namespace detail {
/// The calling thread's innermost open span context (mutable slot shared
/// by ScopedTimer, Span and ScopedSpanParent).
SpanContext &threadSpanContext();
/// Process-unique span id (never zero), handed out from per-thread blocks
/// so opening a span writes no state other threads share.
uint64_t nextSpanId();
/// Opens a new span context nested under the thread's current one (which
/// \p Parent receives) and installs it as current. The caller must
/// restore \p Parent on scope exit.
SpanContext openSpanContext(SpanContext &Parent);
} // namespace detail

/// The calling thread's innermost open span context; all ids zero when no
/// span or timer is open. Capture this to parent work handed to another
/// thread (see ScopedSpanParent in Span.h).
inline SpanContext currentSpanContext() {
  return detail::threadSpanContext();
}

/// RAII wall-time span. Construction starts the clock; destruction folds
/// the elapsed time into the label's Timer and, when a sink is attached,
/// emits a span event. Timers nest: each instance becomes the thread's
/// current span context while open, so spans and timers parent under
/// each other freely.
///
/// The string-label constructors look the label up under the registry
/// mutex on every construction; hot paths pass a Timer resolved once.
/// For spans that carry structured attributes, use telemetry::Span
/// (Span.h) instead.
class ScopedTimer {
public:
  explicit ScopedTimer(Timer &T);
  explicit ScopedTimer(std::string_view Label)
      : ScopedTimer(Registry::global().timer(Label)) {}
  ScopedTimer(Registry &Reg, std::string_view Label)
      : ScopedTimer(Reg.timer(Label)) {}
  ~ScopedTimer() { T.closeSpan(StartS, Context, Parent, nullptr, 0); }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  Timer &T;
  double StartS;
  SpanContext Parent;
  SpanContext Context;
};

} // namespace telemetry
} // namespace rcs

#endif // RCS_TELEMETRY_TELEMETRY_H
