//===- tests/telemetry_test.cpp - Unit tests for rcs_telemetry --------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Json.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

using namespace rcs;
using namespace rcs::telemetry;

//===----------------------------------------------------------------------===//
// Allocation counting (for the null-sink hot-path guarantee)
//===----------------------------------------------------------------------===//

namespace {

std::atomic<bool> CountAllocations{false};
std::atomic<uint64_t> NumAllocations{0};

} // namespace

void *operator new(size_t Size) {
  if (CountAllocations.load(std::memory_order_relaxed))
    NumAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  std::abort();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }

//===----------------------------------------------------------------------===//
// Counters, gauges, histograms
//===----------------------------------------------------------------------===//

TEST(CounterTest, AddsAndDefaults) {
  Registry Reg;
  Counter &C = Reg.counter("test.counter.count");
  EXPECT_EQ(C.value(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  // Same name resolves to the same counter.
  EXPECT_EQ(&Reg.counter("test.counter.count"), &C);
  EXPECT_EQ(Reg.counter("test.counter.count").value(), 42u);
}

TEST(GaugeTest, LastSetWins) {
  Registry Reg;
  Gauge &G = Reg.gauge("test.gauge.value");
  EXPECT_EQ(G.value(), 0.0);
  G.set(3.5);
  G.set(-2.25);
  EXPECT_EQ(G.value(), -2.25);
}

TEST(HistogramTest, CountSumMinMaxMean) {
  Registry Reg;
  Histogram &H = Reg.histogram("test.histogram.samples");
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.mean(), 0.0);
  H.record(2.0);
  H.record(6.0);
  H.record(4.0);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_DOUBLE_EQ(H.sum(), 12.0);
  EXPECT_DOUBLE_EQ(H.mean(), 4.0);
  EXPECT_DOUBLE_EQ(H.minValue(), 2.0);
  EXPECT_DOUBLE_EQ(H.maxValue(), 6.0);
}

TEST(HistogramTest, DecadeBuckets) {
  // Bucket B spans [10^(B-9), 10^(B-8)).
  EXPECT_EQ(Distribution::bucketFor(0.0), 0);
  EXPECT_EQ(Distribution::bucketFor(1e-12), 0);
  EXPECT_EQ(Distribution::bucketFor(-5.0), 9); // Bucketed by magnitude.
  EXPECT_EQ(Distribution::bucketFor(5e-9), 0);
  EXPECT_EQ(Distribution::bucketFor(5e-8), 1);
  EXPECT_EQ(Distribution::bucketFor(0.5), 8);
  EXPECT_EQ(Distribution::bucketFor(5.0), 9);
  EXPECT_EQ(Distribution::bucketFor(1e12), Distribution::NumBuckets - 1);
  EXPECT_DOUBLE_EQ(Distribution::bucketLowerBound(9), 1.0);

  Registry Reg;
  Histogram &H = Reg.histogram("test.histogram.buckets");
  H.record(2.0);
  H.record(3.0);
  H.record(2e-4);
  EXPECT_EQ(H.bucketCount(9), 2u);
  EXPECT_EQ(H.bucketCount(5), 1u);
  EXPECT_EQ(H.bucketCount(0), 0u);
}

TEST(HistogramTest, QuantilesAreOrderedAndBounded) {
  Registry Reg;
  Histogram &H = Reg.histogram("test.histogram.quantiles");
  // Empty histogram: all quantiles are zero.
  EXPECT_EQ(H.quantile(0.5), 0.0);
  for (int I = 1; I <= 1000; ++I)
    H.record(double(I)); // Spans buckets [1,10), [10,100), [100,1000].
  double P50 = H.p50(), P95 = H.p95(), P99 = H.p99();
  EXPECT_LE(P50, P95);
  EXPECT_LE(P95, P99);
  EXPECT_GE(P50, H.minValue());
  EXPECT_LE(P99, H.maxValue());
  // Decade buckets bound the estimate to the right order of magnitude:
  // the true p50 is 500, inside [100, 1000).
  EXPECT_GE(P50, 100.0);
  EXPECT_LE(P50, 1000.0);
  EXPECT_GE(P99, 100.0);
}

TEST(HistogramTest, QuantileOfUniformBucketIsInterpolated) {
  Registry Reg;
  Histogram &H = Reg.histogram("test.histogram.interp");
  for (int I = 0; I != 100; ++I)
    H.record(5.0); // One bucket: [1, 10).
  double P50 = H.quantile(0.5);
  EXPECT_GE(P50, 1.0);
  EXPECT_LE(P50, 5.0) << "estimates clamp to the observed max";
  EXPECT_DOUBLE_EQ(H.quantile(1.0), 5.0);
}

TEST(HistogramTest, QuantilesStayWithinTheObservedRange) {
  Registry Reg;
  // 72 samples of one value, as the fault sweep's max junction records:
  // interpolating inside the [10, 100) decade must not report 31.6.
  Histogram &Constant = Reg.histogram("test.histogram.constant");
  for (int I = 0; I != 72; ++I)
    Constant.record(46.5);
  EXPECT_DOUBLE_EQ(Constant.p50(), 46.5);
  EXPECT_DOUBLE_EQ(Constant.p95(), 46.5);
  EXPECT_DOUBLE_EQ(Constant.p99(), 46.5);

  // A spread inside one decade: no quantile falls below the minimum.
  Histogram &Spread = Reg.histogram("test.histogram.spread");
  for (int I = 20; I <= 30; ++I)
    Spread.record(double(I));
  MetricsSnapshot Snapshot = Reg.snapshotMetrics();
  ASSERT_EQ(Snapshot.Histograms.size(), 2u);
  for (const auto &[Name, HS] : Snapshot.Histograms) {
    EXPECT_GE(HS.P50, HS.Min) << Name;
    EXPECT_LE(HS.P50, HS.P95) << Name;
    EXPECT_LE(HS.P95, HS.P99) << Name;
    EXPECT_LE(HS.P99, HS.Max) << Name;
  }
  EXPECT_GE(Spread.quantile(0.0), 20.0);
}

TEST(HistogramTest, SnapshotMetricsCarriesQuantiles) {
  Registry Reg;
  Reg.counter("test.snapshot.count").add(7);
  Reg.gauge("test.snapshot.level").set(2.5);
  Histogram &H = Reg.histogram("test.snapshot.samples");
  for (int I = 1; I <= 100; ++I)
    H.record(double(I));
  MetricsSnapshot Snapshot = Reg.snapshotMetrics();
  ASSERT_EQ(Snapshot.Counters.size(), 1u);
  EXPECT_EQ(Snapshot.Counters[0].first, "test.snapshot.count");
  EXPECT_EQ(Snapshot.Counters[0].second, 7u);
  ASSERT_EQ(Snapshot.Gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(Snapshot.Gauges[0].second, 2.5);
  ASSERT_EQ(Snapshot.Histograms.size(), 1u);
  const HistogramSnapshot &HS = Snapshot.Histograms[0].second;
  EXPECT_EQ(HS.Count, 100u);
  EXPECT_LE(HS.P50, HS.P95);
  EXPECT_LE(HS.P95, HS.P99);
  EXPECT_LE(HS.P99, HS.Max);
}

TEST(RegistryTest, ResetZeroesInPlace) {
  Registry Reg;
  Counter &C = Reg.counter("test.reset.count");
  Gauge &G = Reg.gauge("test.reset.value");
  Histogram &H = Reg.histogram("test.reset.samples");
  C.add(7);
  G.set(1.5);
  H.record(3.0);
  Reg.resetMetrics();
  // The same references must still be live and read zero.
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0.0);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(&Reg.counter("test.reset.count"), &C);
}

//===----------------------------------------------------------------------===//
// ScopedTimer nesting and aggregation
//===----------------------------------------------------------------------===//

namespace {

/// Captures every sink callback for inspection.
struct RecordingSink : EventSink {
  struct Span {
    double StartS;
    double DurationS;
    int Depth;
    std::string Label;
    SpanContext Context;
  };
  struct Instant {
    double TimeS;
    std::string Name;
    std::vector<std::pair<std::string, std::string>> Fields;
  };
  std::vector<Span> Spans;
  std::vector<Instant> Instants;
  // closeSink() destroys the sink right after close(), so the closed flag
  // must outlive the sink object.
  bool *ClosedOut = nullptr;

  void instant(double TimeS, std::string_view Name,
               const EventField *Fields, size_t NumFields) override {
    Instant Event;
    Event.TimeS = TimeS;
    Event.Name = std::string(Name);
    for (size_t I = 0; I != NumFields; ++I)
      Event.Fields.emplace_back(std::string(Fields[I].Key),
                                Fields[I].FieldKind == EventField::Kind::String
                                    ? std::string(Fields[I].StringValue)
                                    : std::string());
    Instants.push_back(std::move(Event));
  }
  void span(const SpanRecord &Rec) override {
    Spans.push_back({Rec.StartS, Rec.DurationS, Rec.Context.Depth,
                     std::string(Rec.Name), Rec.Context});
  }
  Status close() override {
    if (ClosedOut)
      *ClosedOut = true;
    return Status::ok();
  }
};

} // namespace

TEST(ScopedTimerTest, AggregatesPerLabel) {
  Registry Reg;
  for (int I = 0; I != 3; ++I)
    ScopedTimer Timer(Reg, "test.timer.outer");
  SpanStats Stats = Reg.timerStats("test.timer.outer");
  EXPECT_EQ(Stats.Count, 3u);
  EXPECT_GE(Stats.TotalS, 0.0);
  EXPECT_GE(Stats.MaxS, Stats.MinS);
  EXPECT_EQ(Reg.timerStats("test.timer.unknown").Count, 0u);
}

TEST(ScopedTimerTest, NestedTimersRecordDepth) {
  Registry Reg;
  auto Sink = std::make_unique<RecordingSink>();
  bool SinkClosed = false;
  Sink->ClosedOut = &SinkClosed;
  RecordingSink *Raw = Sink.get();
  Reg.setSink(std::move(Sink));
  {
    ScopedTimer Outer(Reg, "test.timer.outer");
    {
      ScopedTimer Inner(Reg, "test.timer.inner");
    }
  }
  // Inner closes first; depths reflect nesting.
  ASSERT_EQ(Raw->Spans.size(), 2u);
  EXPECT_EQ(Raw->Spans[0].Label, "test.timer.inner");
  EXPECT_EQ(Raw->Spans[0].Depth, 1);
  EXPECT_EQ(Raw->Spans[1].Label, "test.timer.outer");
  EXPECT_EQ(Raw->Spans[1].Depth, 0);
  EXPECT_TRUE(Reg.closeSink().isOk());
  EXPECT_TRUE(SinkClosed);
  EXPECT_EQ(Reg.timerStats("test.timer.outer").Count, 1u);
  EXPECT_EQ(Reg.timerStats("test.timer.inner").Count, 1u);
}

TEST(RegistryTest, EmitEventReachesSink) {
  Registry Reg;
  auto Sink = std::make_unique<RecordingSink>();
  RecordingSink *Raw = Sink.get();
  EXPECT_FALSE(Reg.tracingEnabled());
  Reg.setSink(std::move(Sink));
  EXPECT_TRUE(Reg.tracingEnabled());
  Reg.emitEvent("test.event", {{"x", 1.5}, {"label", "hello"}});
  ASSERT_EQ(Raw->Instants.size(), 1u);
  EXPECT_EQ(Raw->Instants[0].Name, "test.event");
  ASSERT_EQ(Raw->Instants[0].Fields.size(), 2u);
  EXPECT_EQ(Raw->Instants[0].Fields[0].first, "x");
  EXPECT_EQ(Raw->Instants[0].Fields[1].second, "hello");
  EXPECT_TRUE(Reg.closeSink().isOk());
  EXPECT_FALSE(Reg.tracingEnabled());
}

//===----------------------------------------------------------------------===//
// Null-sink hot path: no allocations
//===----------------------------------------------------------------------===//

TEST(RegistryTest, HotPathDoesNotAllocateWithoutSink) {
  Registry Reg;
  // Warm-up creates the metric nodes and the timer slot.
  Counter &C = Reg.counter("test.hot.count");
  Histogram &H = Reg.histogram("test.hot.samples");
  { ScopedTimer Warm(Reg, "test.hot.span"); }

  CountAllocations.store(true);
  NumAllocations.store(0);
  for (int I = 0; I != 1000; ++I) {
    C.add();
    H.record(1e-3 * I);
    Reg.counter("test.hot.count").add(); // Heterogeneous re-lookup.
    ScopedTimer Timer(Reg, "test.hot.span");
    Reg.emitEvent("test.hot.event", {{"i", I}});
  }
  uint64_t Allocated = NumAllocations.load();
  CountAllocations.store(false);
  EXPECT_EQ(Allocated, 0u);
  EXPECT_EQ(C.value(), 2000u);
}

//===----------------------------------------------------------------------===//
// JSON helpers and emitted-output validity
//===----------------------------------------------------------------------===//

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(jsonQuote("x"), "\"x\"");
}

TEST(JsonTest, NumbersAndNonFinite) {
  EXPECT_TRUE(validateJson(jsonNumber(1.5)).isOk());
  EXPECT_TRUE(validateJson(jsonNumber(-3e-9)).isOk());
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonNumber(std::nan("")), "null");
}

TEST(JsonTest, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(validateJson("{\"a\": [1, 2.5e3, true, null, \"x\"]}").isOk());
  EXPECT_TRUE(validateJson("  42 ").isOk());
  EXPECT_FALSE(validateJson("{\"a\": }").isOk());
  EXPECT_FALSE(validateJson("[1, 2").isOk());
  EXPECT_FALSE(validateJson("{} {}").isOk()); // Trailing content.
  EXPECT_FALSE(validateJson("{'a': 1}").isOk());
  EXPECT_FALSE(validateJson("").isOk());

  size_t NumLines = 0;
  EXPECT_TRUE(
      validateJsonLines("{\"a\": 1}\n{\"b\": 2}\n\n{\"c\": 3}\n", &NumLines)
          .isOk());
  EXPECT_EQ(NumLines, 3u);
  EXPECT_FALSE(validateJsonLines("{\"a\": 1}\nnot json\n").isOk());
}

TEST(RegistryTest, MetricsJsonIsValidAndEscaped) {
  Registry Reg;
  // A hostile metric name must come out as a correctly escaped key.
  Reg.counter("weird\"name\\with\ncontrol").add(3);
  Reg.gauge("test.gauge.value").set(1.25);
  Reg.histogram("test.histogram.samples").record(2.0);
  { ScopedTimer Timer(Reg, "test.timer.span"); }
  std::string Json = Reg.metricsJson();
  Status Valid = validateJson(Json);
  EXPECT_TRUE(Valid.isOk()) << Valid.message() << "\n" << Json;
  EXPECT_NE(Json.find("weird\\\"name\\\\with\\ncontrol"),
            std::string::npos);
}

TEST(JsonlSinkTest, EmitsOneValidObjectPerLine) {
  std::string Path = ::testing::TempDir() + "telemetry_test_trace.jsonl";
  Registry Reg;
  {
    Expected<std::unique_ptr<EventSink>> Sink = makeJsonlSink(Path);
    ASSERT_TRUE(Sink.hasValue()) << Sink.message();
    Reg.setSink(std::move(*Sink));
  }
  Reg.emitEvent("test.event.first", {{"x", 1.0}, {"flag", true}});
  { ScopedTimer Timer(Reg, "test.span"); }
  Reg.emitEvent("quote\"in\"name", {{"s", "va\"lue"}});
  ASSERT_TRUE(Reg.closeSink().isOk());

  std::FILE *File = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  std::string Text;
  char Buffer[4096];
  size_t Got;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Text.append(Buffer, Got);
  std::fclose(File);
  std::remove(Path.c_str());

  size_t NumLines = 0;
  Status Valid = validateJsonLines(Text, &NumLines);
  EXPECT_TRUE(Valid.isOk()) << Valid.message() << "\n" << Text;
  EXPECT_EQ(NumLines, 3u);
}

TEST(ChromeTraceSinkTest, EmitsOneValidJsonArray) {
  std::string Path = ::testing::TempDir() + "telemetry_test_trace.json";
  Registry Reg;
  {
    Expected<std::unique_ptr<EventSink>> Sink = makeChromeTraceSink(Path);
    ASSERT_TRUE(Sink.hasValue()) << Sink.message();
    Reg.setSink(std::move(*Sink));
  }
  {
    ScopedTimer Outer(Reg, "test.span.outer");
    Reg.emitEvent("test.event", {{"i", 7}});
  }
  ASSERT_TRUE(Reg.closeSink().isOk());

  std::FILE *File = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  std::string Text;
  char Buffer[4096];
  size_t Got;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Text.append(Buffer, Got);
  std::fclose(File);
  std::remove(Path.c_str());

  Status Valid = validateJson(Text);
  EXPECT_TRUE(Valid.isOk()) << Valid.message() << "\n" << Text;
  EXPECT_EQ(Text.front(), '[');
  EXPECT_NE(Text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(Text.find("\"ph\": \"i\""), std::string::npos);
}
