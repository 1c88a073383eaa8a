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
// Counter, Distribution, Histogram, Timer
//===----------------------------------------------------------------------===//

uint64_t Counter::value() const {
  uint64_t Total = 0;
  for (const Stripe &S : Stripes)
    Total += S.Value.load(std::memory_order_relaxed);
  return Total;
}

int Distribution::bucketFor(double Sample) {
  double Magnitude = std::fabs(Sample);
  if (!(Magnitude > 1e-9)) // Also catches NaN.
    return 0;
  int Exponent = static_cast<int>(std::floor(std::log10(Magnitude)));
  return std::clamp(Exponent + 9, 0, NumBuckets - 1);
}

double Distribution::bucketLowerBound(int Bucket) {
  assert(Bucket >= 0 && Bucket < NumBuckets && "bucket out of range");
  return std::pow(10.0, Bucket - 9);
}

void Distribution::record(double Sample) {
  if (Count == 0) {
    Min = Sample;
    Max = Sample;
    MinAbsSample = std::fabs(Sample);
  } else {
    Min = std::min(Min, Sample);
    Max = std::max(Max, Sample);
    MinAbsSample = std::min(MinAbsSample, std::fabs(Sample));
  }
  ++Count;
  Sum += Sample;
  ++Buckets[bucketFor(Sample)];
}

void Distribution::merge(const Distribution &Other) {
  if (Other.Count == 0)
    return;
  if (Count == 0) {
    *this = Other;
    return;
  }
  Min = std::min(Min, Other.Min);
  Max = std::max(Max, Other.Max);
  MinAbsSample = std::min(MinAbsSample, Other.MinAbsSample);
  Count += Other.Count;
  Sum += Other.Sum;
  for (int B = 0; B != NumBuckets; ++B)
    Buckets[B] += Other.Buckets[B];
}

double Distribution::mean() const {
  return Count == 0 ? 0.0 : Sum / static_cast<double>(Count);
}

uint64_t Distribution::bucketCount(int Bucket) const {
  assert(Bucket >= 0 && Bucket < NumBuckets && "bucket out of range");
  return Buckets[Bucket];
}

double Distribution::quantile(double Q) const {
  if (Count == 0)
    return 0.0;
  Q = std::clamp(Q, 0.0, 1.0);
  double MaxAbsSample = std::max(std::fabs(Min), std::fabs(Max));

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
      return std::clamp(Estimate, MinAbsSample, MaxAbsSample);
    }
    Cumulative = Next;
  }
  return MaxAbsSample;
}

HistogramSnapshot Distribution::snapshot() const {
  HistogramSnapshot S;
  S.Count = Count;
  S.Sum = Sum;
  S.Min = minValue();
  S.Max = maxValue();
  S.Mean = mean();
  S.P50 = p50();
  S.P95 = p95();
  S.P99 = p99();
  return S;
}

void Histogram::record(double Sample) {
  Stripe &S = Stripes[detail::threadStripe()];
  LockGuard Lock(S.Mutex);
  S.Samples.record(Sample);
}

Distribution Histogram::merged() const {
  Distribution All;
  for (const Stripe &S : Stripes) {
    LockGuard Lock(S.Mutex);
    All.merge(S.Samples);
  }
  return All;
}

void Histogram::reset() {
  for (Stripe &S : Stripes) {
    LockGuard Lock(S.Mutex);
    S.Samples = Distribution();
  }
}

namespace {

/// Folds \p From into \p Into, as if its spans had been recorded there.
void foldStats(SpanStats &Into, const SpanStats &From) {
  if (From.Count == 0)
    return;
  Into.MinS = Into.Count == 0 ? From.MinS : std::min(Into.MinS, From.MinS);
  Into.MaxS = Into.Count == 0 ? From.MaxS : std::max(Into.MaxS, From.MaxS);
  Into.Count += From.Count;
  Into.TotalS += From.TotalS;
}

} // namespace

SpanStats Timer::stats() const {
  SpanStats All;
  for (const Stripe &S : Stripes) {
    LockGuard Lock(S.Mutex);
    foldStats(All, S.Stats);
  }
  return All;
}

void Timer::closeSpan(double StartS, const SpanContext &Context,
                      const SpanContext &Parent, const EventField *Attrs,
                      size_t NumAttrs) {
  double DurationS = Owner.nowSeconds() - StartS;
  detail::threadSpanContext() = Parent;
  {
    Stripe &S = Stripes[detail::threadStripe()];
    LockGuard Lock(S.Mutex);
    foldStats(S.Stats, SpanStats{1, DurationS, DurationS, DurationS});
  }
  if (!Owner.tracingEnabled())
    return;
  SpanRecord Rec;
  Rec.StartS = StartS;
  Rec.DurationS = DurationS;
  Rec.Name = Label;
  Rec.Context = Context;
  Rec.ParentThreadId = Parent.ThreadId;
  Rec.Attrs = Attrs;
  Rec.NumAttrs = NumAttrs;
  Owner.emitSpan(Rec);
}

void Timer::reset() {
  for (Stripe &S : Stripes) {
    LockGuard Lock(S.Mutex);
    S.Stats = SpanStats();
  }
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

namespace {

/// Finds \p Name in \p Metrics, or constructs its metric from \p Args;
/// the bool is true when it was constructed.
template <typename MapT, typename... ArgTs>
std::pair<typename MapT::iterator, bool>
findOrEmplace(MapT &Metrics, std::string_view Name, ArgTs &...Args) {
  auto It = Metrics.find(Name);
  if (It != Metrics.end())
    return {It, false};
  return Metrics.emplace(std::piecewise_construct,
                         std::forward_as_tuple(Name),
                         std::forward_as_tuple(Args...));
}

} // namespace

Counter &Registry::counter(std::string_view Name) {
  LockGuard Lock(Mutex);
  return findOrEmplace(Counters, Name).first->second;
}

Gauge &Registry::gauge(std::string_view Name) {
  LockGuard Lock(Mutex);
  return findOrEmplace(Gauges, Name).first->second;
}

Histogram &Registry::histogram(std::string_view Name) {
  LockGuard Lock(Mutex);
  return findOrEmplace(Histograms, Name).first->second;
}

Timer &Registry::timer(std::string_view Label) {
  LockGuard Lock(Mutex);
  auto [It, Inserted] = findOrEmplace(Timers, Label, *this);
  if (Inserted)
    It->second.Label = It->first;
  return It->second;
}

SpanStats Registry::timerStats(std::string_view Label) const {
  LockGuard Lock(Mutex);
  auto It = Timers.find(Label);
  return It == Timers.end() ? SpanStats() : It->second.stats();
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

void Registry::emitSpan(const SpanRecord &Rec) {
  LockGuard Lock(Mutex);
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
  for (const auto &[Name, H] : Histograms)
    Snapshot.Histograms.emplace_back(Name, H.merged().snapshot());
  Snapshot.Timers.reserve(Timers.size());
  for (const auto &[Label, T] : Timers)
    Snapshot.Timers.emplace_back(Label, T.stats());
  return Snapshot;
}

std::string Registry::metricsJson() const {
  MetricsSnapshot Snapshot = snapshotMetrics();
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Snapshot.Counters) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    " + jsonQuote(Name) + ": " + std::to_string(Value);
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"gauges\": {";
  First = true;
  for (const auto &[Name, Value] : Snapshot.Gauges) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    " + jsonQuote(Name) + ": " + jsonNumber(Value);
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Snapshot.Histograms) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    " + jsonQuote(Name) + ": {\"count\": " +
           std::to_string(H.Count) + ", \"sum\": " + jsonNumber(H.Sum) +
           ", \"min\": " + jsonNumber(H.Min) +
           ", \"max\": " + jsonNumber(H.Max) +
           ", \"mean\": " + jsonNumber(H.Mean) +
           ", \"p50\": " + jsonNumber(H.P50) +
           ", \"p95\": " + jsonNumber(H.P95) +
           ", \"p99\": " + jsonNumber(H.P99) + "}";
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"timers\": {";
  First = true;
  for (const auto &[Label, S] : Snapshot.Timers) {
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
    for (Counter::Stripe &S : C.Stripes)
      S.Value.store(0, std::memory_order_relaxed);
  for (auto &[Name, G] : Gauges)
    G.Value.store(0.0, std::memory_order_relaxed);
  for (auto &[Name, H] : Histograms)
    H.reset();
  for (auto &[Label, T] : Timers)
    T.reset();
}

//===----------------------------------------------------------------------===//
// Span context and ScopedTimer
//===----------------------------------------------------------------------===//

SpanContext &detail::threadSpanContext() {
  thread_local SpanContext Context;
  return Context;
}

uint64_t detail::nextSpanId() {
  // Each thread draws ids from its own block and touches the shared
  // cursor once per block.
  constexpr uint64_t BlockSize = 4096;
  static std::atomic<uint64_t> NextBlock{1};
  thread_local uint64_t Next = 0;
  thread_local uint64_t End = 0;
  if (Next == End) {
    Next = NextBlock.fetch_add(BlockSize, std::memory_order_relaxed);
    End = Next + BlockSize;
  }
  return Next++;
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

ScopedTimer::ScopedTimer(Timer &T)
    : T(T), StartS(T.Owner.nowSeconds()),
      Context(detail::openSpanContext(Parent)) {}
