//===- telemetry/Telemetry.cpp - Counters, timers, event tracing --------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "telemetry/Json.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

using namespace rcs;
using namespace rcs::telemetry;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

int Histogram::bucketFor(double Sample) {
  double Magnitude = std::fabs(Sample);
  if (!(Magnitude > 1e-9)) // Also catches NaN.
    return 0;
  int Exponent = static_cast<int>(std::floor(std::log10(Magnitude)));
  return std::clamp(Exponent + 9, 0, NumBuckets - 1);
}

double Histogram::bucketLowerBound(int Bucket) {
  assert(Bucket >= 0 && Bucket < NumBuckets && "bucket out of range");
  return std::pow(10.0, Bucket - 9);
}

void Histogram::record(double Sample) {
  LockGuard Lock(Mutex);
  if (Count == 0) {
    Min = Sample;
    Max = Sample;
    MinMagnitude = std::fabs(Sample);
  } else {
    Min = std::min(Min, Sample);
    Max = std::max(Max, Sample);
    MinMagnitude = std::min(MinMagnitude, std::fabs(Sample));
  }
  ++Count;
  Sum += Sample;
  ++Buckets[bucketFor(Sample)];
}

uint64_t Histogram::count() const {
  LockGuard Lock(Mutex);
  return Count;
}

double Histogram::sum() const {
  LockGuard Lock(Mutex);
  return Sum;
}

double Histogram::mean() const {
  LockGuard Lock(Mutex);
  return Count == 0 ? 0.0 : Sum / static_cast<double>(Count);
}

double Histogram::minValue() const {
  LockGuard Lock(Mutex);
  return Count == 0 ? 0.0 : Min;
}

double Histogram::maxValue() const {
  LockGuard Lock(Mutex);
  return Count == 0 ? 0.0 : Max;
}

uint64_t Histogram::bucketCount(int Bucket) const {
  assert(Bucket >= 0 && Bucket < NumBuckets && "bucket out of range");
  LockGuard Lock(Mutex);
  return Buckets[Bucket];
}

double Histogram::quantileLocked(double Q) const {
  if (Count == 0)
    return 0.0;
  Q = std::clamp(Q, 0.0, 1.0);
  double MaxMagnitude = std::max(std::fabs(Min), std::fabs(Max));

  // Rank of the requested quantile among the recorded magnitudes, then
  // the bucket holding it.
  double Rank = Q * static_cast<double>(Count);
  uint64_t Cumulative = 0;
  for (int B = 0; B != NumBuckets; ++B) {
    if (Buckets[B] == 0)
      continue;
    uint64_t Next = Cumulative + Buckets[B];
    if (Rank <= static_cast<double>(Next) || B == NumBuckets - 1 ||
        Next == Count) {
      // Log-interpolate the position inside the decade; bucket 0 also
      // holds zeros, so it interpolates linearly from zero instead.
      double Within =
          (Rank - static_cast<double>(Cumulative)) /
          static_cast<double>(Buckets[B]);
      Within = std::clamp(Within, 0.0, 1.0);
      double Lower = bucketLowerBound(B);
      double Estimate = B == 0 ? Within * Lower
                               : Lower * std::pow(10.0, Within);
      return std::clamp(Estimate, MinMagnitude, MaxMagnitude);
    }
    Cumulative = Next;
  }
  return MaxMagnitude;
}

double Histogram::quantile(double Q) const {
  LockGuard Lock(Mutex);
  return quantileLocked(Q);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Registry::Registry() : Epoch(std::chrono::steady_clock::now()) {}

Registry::~Registry() {
  // Best effort: a sink still attached at teardown is flushed; failures
  // have nowhere to be reported.
  (void)closeSink();
}

Registry &Registry::global() {
  static Registry Instance;
  return Instance;
}

Counter &Registry::counter(std::string_view Name) {
  LockGuard Lock(Mutex);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(Name), std::forward_as_tuple())
             .first;
  return It->second;
}

Gauge &Registry::gauge(std::string_view Name) {
  LockGuard Lock(Mutex);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(Name), std::forward_as_tuple())
             .first;
  return It->second;
}

Histogram &Registry::histogram(std::string_view Name) {
  LockGuard Lock(Mutex);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(Name), std::forward_as_tuple())
             .first;
  return It->second;
}

SpanStats Registry::timerStats(std::string_view Label) const {
  LockGuard Lock(Mutex);
  auto It = Spans.find(Label);
  return It == Spans.end() ? SpanStats() : It->second;
}

double Registry::nowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Epoch)
      .count();
}

void Registry::setSink(std::unique_ptr<EventSink> NewSink) {
  (void)closeSink();
  LockGuard Lock(Mutex);
  Sink = std::move(NewSink);
  TracingOn.store(Sink != nullptr, std::memory_order_relaxed);
}

Status Registry::closeSink() {
  std::unique_ptr<EventSink> Old;
  {
    LockGuard Lock(Mutex);
    Old = std::move(Sink);
    TracingOn.store(false, std::memory_order_relaxed);
  }
  return Old ? Old->close() : Status::ok();
}

void Registry::emitEvent(std::string_view Name,
                         std::initializer_list<EventField> Fields) {
  if (!tracingEnabled())
    return;
  double TimeS = nowSeconds();
  LockGuard Lock(Mutex);
  if (Sink)
    Sink->instant(TimeS, Name, Fields.begin(), Fields.size());
}

SpanStats &Registry::spanStatsSlot(std::string_view Label) {
  LockGuard Lock(Mutex);
  auto It = Spans.find(Label);
  if (It == Spans.end())
    It = Spans.emplace(std::string(Label), SpanStats()).first;
  return It->second;
}

void Registry::recordSpan(SpanStats &Slot, const SpanRecord &Rec) {
  LockGuard Lock(Mutex);
  if (Slot.Count == 0) {
    Slot.MinS = Rec.DurationS;
    Slot.MaxS = Rec.DurationS;
  } else {
    Slot.MinS = std::min(Slot.MinS, Rec.DurationS);
    Slot.MaxS = std::max(Slot.MaxS, Rec.DurationS);
  }
  ++Slot.Count;
  Slot.TotalS += Rec.DurationS;
  if (Sink)
    Sink->span(Rec);
}

MetricsSnapshot Registry::snapshotMetrics() const {
  LockGuard Lock(Mutex);
  MetricsSnapshot Snapshot;
  Snapshot.Counters.reserve(Counters.size());
  for (const auto &[Name, C] : Counters)
    Snapshot.Counters.emplace_back(Name, C.value());
  Snapshot.Gauges.reserve(Gauges.size());
  for (const auto &[Name, G] : Gauges)
    Snapshot.Gauges.emplace_back(Name, G.value());
  Snapshot.Histograms.reserve(Histograms.size());
  for (const auto &[Name, H] : Histograms) {
    LockGuard HLock(H.Mutex);
    HistogramSnapshot S;
    S.Count = H.Count;
    S.Sum = H.Sum;
    S.Min = H.Count ? H.Min : 0.0;
    S.Max = H.Count ? H.Max : 0.0;
    S.Mean = H.Count ? H.Sum / static_cast<double>(H.Count) : 0.0;
    S.P50 = H.quantileLocked(0.50);
    S.P95 = H.quantileLocked(0.95);
    S.P99 = H.quantileLocked(0.99);
    Snapshot.Histograms.emplace_back(Name, S);
  }
  Snapshot.Timers.reserve(Spans.size());
  for (const auto &[Label, S] : Spans)
    Snapshot.Timers.emplace_back(Label, S);
  return Snapshot;
}

std::string Registry::metricsJson() const {
  LockGuard Lock(Mutex);
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    " + jsonQuote(Name) + ": " +
           std::to_string(C.value());
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"gauges\": {";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    " + jsonQuote(Name) + ": " + jsonNumber(G.value());
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    Out += First ? "\n" : ",\n";
    First = false;
    LockGuard HLock(H.Mutex);
    Out += "    " + jsonQuote(Name) + ": {\"count\": " +
           std::to_string(H.Count) + ", \"sum\": " + jsonNumber(H.Sum) +
           ", \"min\": " + jsonNumber(H.Count ? H.Min : 0.0) +
           ", \"max\": " + jsonNumber(H.Count ? H.Max : 0.0) +
           ", \"mean\": " +
           jsonNumber(H.Count ? H.Sum / static_cast<double>(H.Count)
                              : 0.0) +
           ", \"p50\": " + jsonNumber(H.quantileLocked(0.50)) +
           ", \"p95\": " + jsonNumber(H.quantileLocked(0.95)) +
           ", \"p99\": " + jsonNumber(H.quantileLocked(0.99)) + "}";
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"timers\": {";
  First = true;
  for (const auto &[Label, S] : Spans) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    " + jsonQuote(Label) + ": {\"count\": " +
           std::to_string(S.Count) + ", \"total_s\": " +
           jsonNumber(S.TotalS) + ", \"min_s\": " + jsonNumber(S.MinS) +
           ", \"max_s\": " + jsonNumber(S.MaxS) + "}";
  }
  Out += First ? "}\n}\n" : "\n  }\n}\n";
  return Out;
}

Status Registry::writeMetricsFile(const std::string &Path) const {
  std::string Body = metricsJson();
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return Status::error("cannot open metrics file '" + Path + "'");
  size_t Written = std::fwrite(Body.data(), 1, Body.size(), Out);
  bool Ok = Written == Body.size() && std::fclose(Out) == 0;
  if (!Ok)
    return Status::error("short write to metrics file '" + Path + "'");
  return Status::ok();
}

void Registry::resetMetrics() {
  LockGuard Lock(Mutex);
  for (auto &[Name, C] : Counters)
    C.Value.store(0, std::memory_order_relaxed);
  for (auto &[Name, G] : Gauges)
    G.Value.store(0.0, std::memory_order_relaxed);
  for (auto &[Name, H] : Histograms) {
    LockGuard HLock(H.Mutex);
    H.Count = 0;
    H.Sum = H.Min = H.Max = H.MinMagnitude = 0.0;
    std::fill(std::begin(H.Buckets), std::end(H.Buckets), 0);
  }
  for (auto &[Label, S] : Spans)
    S = SpanStats();
}

//===----------------------------------------------------------------------===//
// Span context and ScopedTimer
//===----------------------------------------------------------------------===//

SpanContext &detail::threadSpanContext() {
  thread_local SpanContext Context;
  return Context;
}

uint64_t detail::nextSpanId() {
  static std::atomic<uint64_t> NextId{1};
  return NextId.fetch_add(1, std::memory_order_relaxed);
}

uint32_t detail::currentThreadId() {
  static std::atomic<uint32_t> NextThread{1};
  thread_local uint32_t Id =
      NextThread.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

SpanContext detail::openSpanContext(SpanContext &Parent) {
  SpanContext &Ctx = threadSpanContext();
  Parent = Ctx;
  SpanContext Mine;
  Mine.SpanId = nextSpanId();
  Mine.ParentId = Parent.SpanId;
  Mine.TraceId = Parent.SpanId ? Parent.TraceId : Mine.SpanId;
  Mine.Depth = Parent.SpanId ? Parent.Depth + 1 : 0;
  Mine.ThreadId = currentThreadId();
  Ctx = Mine;
  return Mine;
}

ScopedTimer::ScopedTimer(Registry &Reg, std::string_view Label)
    : Reg(Reg), Label(Label), Slot(Reg.spanStatsSlot(Label)),
      StartS(Reg.nowSeconds()) {
  (void)detail::openSpanContext(Parent);
}

ScopedTimer::~ScopedTimer() {
  SpanContext &Ctx = detail::threadSpanContext();
  SpanRecord Rec;
  Rec.StartS = StartS;
  Rec.DurationS = Reg.nowSeconds() - StartS;
  Rec.Name = Label;
  Rec.Context = Ctx;
  Rec.ParentThreadId = Parent.ThreadId;
  Ctx = Parent;
  Reg.recordSpan(Slot, Rec);
}
