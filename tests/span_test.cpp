//===- tests/span_test.cpp - Span tracing and profiler unit tests ---------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the causal span layer: context propagation (nesting, siblings,
/// cross-thread adoption), the no-sink zero-allocation guarantee, inline
/// attribute capacity, and the profiler's aggregation math (self vs total
/// time, merge-by-name, attribute accumulation, orphan lifting, quantile
/// ordering, JSON shape).
///
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"
#include "telemetry/Json.h"
#include "telemetry/Profile.h"
#include "telemetry/Span.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

using namespace rcs;
using namespace rcs::telemetry;

//===----------------------------------------------------------------------===//
// Allocation counting (for the no-sink hot-path guarantee)
//===----------------------------------------------------------------------===//

namespace {

std::atomic<bool> CountAllocations{false};
std::atomic<uint64_t> NumAllocations{0};

} // namespace

// Every new/delete flavor must route through malloc/free: libstdc++'s
// stable_sort (used by Profiler::report) acquires its temporary buffer
// via nothrow new but releases it via plain delete, so replacing only
// the throwing pair trips asan's alloc-dealloc-mismatch check.
static void *countedAlloc(size_t Size) {
  if (CountAllocations.load(std::memory_order_relaxed))
    NumAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void *operator new(size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  std::abort();
}
void *operator new[](size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  std::abort();
}
void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
void *operator new[](size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

//===----------------------------------------------------------------------===//
// Recording sink
//===----------------------------------------------------------------------===//

namespace {

/// Captures every SpanRecord, copying the transient attribute array.
/// Attribute keys/string values are literals in these tests, so keeping
/// the EventFields by value is safe.
class RecordingSink final : public EventSink {
public:
  struct Rec {
    double StartS = 0.0;
    double DurationS = 0.0;
    std::string Name;
    SpanContext Context;
    uint32_t ParentThreadId = 0;
    std::vector<EventField> Attrs;
  };

  void instant(double, std::string_view, const EventField *,
               size_t) override {}
  void span(const SpanRecord &R) override {
    Rec Copy;
    Copy.StartS = R.StartS;
    Copy.DurationS = R.DurationS;
    Copy.Name = std::string(R.Name);
    Copy.Context = R.Context;
    Copy.ParentThreadId = R.ParentThreadId;
    Copy.Attrs.assign(R.Attrs, R.Attrs + R.NumAttrs);
    Spans.push_back(std::move(Copy));
  }
  Status close() override { return Status::ok(); }

  // The registry serializes sink calls, and every test joins its workers
  // (parallelFor is fork-join) before reading, so plain storage is safe.
  std::vector<Rec> Spans;
};

/// Installs a RecordingSink into a fresh registry and keeps a handle to
/// it for assertions after the spans close.
struct Traced {
  Registry Reg;
  RecordingSink *Sink = nullptr;

  Traced() {
    auto Owned = std::make_unique<RecordingSink>();
    Sink = Owned.get();
    Reg.setSink(std::move(Owned));
  }
  const RecordingSink::Rec *find(std::string_view Name) const {
    for (const RecordingSink::Rec &R : Sink->Spans)
      if (R.Name == Name)
        return &R;
    return nullptr;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Context propagation
//===----------------------------------------------------------------------===//

TEST(SpanContextTest, RootStartsTraceNestedChildrenInherit) {
  Traced T;
  SpanContext RootCtx, ChildCtx, GrandCtx;
  {
    Span Root(T.Reg, "test.root");
    RootCtx = Root.context();
    {
      Span Child(T.Reg, "test.child");
      ChildCtx = Child.context();
      {
        Span Grand(T.Reg, "test.grand");
        GrandCtx = Grand.context();
      }
    }
  }
  // A root span starts a new trace whose TraceId is its own SpanId.
  EXPECT_NE(RootCtx.SpanId, 0u);
  EXPECT_EQ(RootCtx.TraceId, RootCtx.SpanId);
  EXPECT_EQ(RootCtx.ParentId, 0u);
  EXPECT_EQ(RootCtx.Depth, 0);
  // Children share the trace, chain parent ids, and deepen by one.
  EXPECT_EQ(ChildCtx.TraceId, RootCtx.TraceId);
  EXPECT_EQ(ChildCtx.ParentId, RootCtx.SpanId);
  EXPECT_EQ(ChildCtx.Depth, 1);
  EXPECT_EQ(GrandCtx.TraceId, RootCtx.TraceId);
  EXPECT_EQ(GrandCtx.ParentId, ChildCtx.SpanId);
  EXPECT_EQ(GrandCtx.Depth, 2);
  // All ids distinct, all on the same thread.
  EXPECT_NE(ChildCtx.SpanId, RootCtx.SpanId);
  EXPECT_NE(GrandCtx.SpanId, ChildCtx.SpanId);
  EXPECT_EQ(ChildCtx.ThreadId, RootCtx.ThreadId);
  // Closing the last span leaves the thread with no open span.
  EXPECT_EQ(currentSpanContext().SpanId, 0u);
  // RAII order: innermost closes (and records) first.
  ASSERT_EQ(T.Sink->Spans.size(), 3u);
  EXPECT_EQ(T.Sink->Spans[0].Name, "test.grand");
  EXPECT_EQ(T.Sink->Spans[2].Name, "test.root");
  ASSERT_TRUE(Status::ok().isOk());
}

TEST(SpanContextTest, SiblingsShareParentNotEachOther) {
  Traced T;
  {
    Span Root(T.Reg, "test.root");
    { Span A(T.Reg, "test.a"); }
    { Span B(T.Reg, "test.b"); }
  }
  const RecordingSink::Rec *A = T.find("test.a");
  const RecordingSink::Rec *B = T.find("test.b");
  const RecordingSink::Rec *Root = T.find("test.root");
  ASSERT_TRUE(A && B && Root);
  // B opened after A closed, so B's parent is the root, not A.
  EXPECT_EQ(A->Context.ParentId, Root->Context.SpanId);
  EXPECT_EQ(B->Context.ParentId, Root->Context.SpanId);
  EXPECT_NE(A->Context.SpanId, B->Context.SpanId);
  EXPECT_EQ(A->Context.Depth, 1);
  EXPECT_EQ(B->Context.Depth, 1);
}

TEST(SpanContextTest, ScopedSpanParentInstallsAndRestores) {
  SpanContext Fake;
  Fake.TraceId = 7;
  Fake.SpanId = 42;
  Fake.Depth = 3;
  SpanContext Before = currentSpanContext();
  {
    ScopedSpanParent Adopt(Fake);
    EXPECT_EQ(currentSpanContext().SpanId, 42u);
    EXPECT_EQ(currentSpanContext().TraceId, 7u);
  }
  EXPECT_EQ(currentSpanContext().SpanId, Before.SpanId);
}

TEST(SpanCrossThreadTest, WorkersParentUnderAdoptedRoot) {
  Traced T;
  constexpr size_t NumItems = 64;
  SpanContext RootCtx;
  {
    Span Root(T.Reg, "test.sweep");
    RootCtx = Root.context();
    Registry &Reg = T.Reg;
    parallelFor(4, NumItems, [&](size_t Item) {
      ScopedSpanParent Adopt(RootCtx);
      Span Work(Reg, "test.replicate");
      Work.attr("item", static_cast<long long>(Item));
    });
  }
  ASSERT_EQ(T.Sink->Spans.size(), NumItems + 1);
  for (const RecordingSink::Rec &R : T.Sink->Spans) {
    if (R.Name == "test.sweep")
      continue;
    // Every replicate nests under the sweep root regardless of which
    // worker ran it, in the root's trace, one level down.
    EXPECT_EQ(R.Context.TraceId, RootCtx.TraceId);
    EXPECT_EQ(R.Context.ParentId, RootCtx.SpanId);
    EXPECT_EQ(R.Context.Depth, RootCtx.Depth + 1);
    // The record remembers the adopting parent's thread, so a sink can
    // draw the cross-thread edge when the ids differ.
    EXPECT_EQ(R.ParentThreadId, RootCtx.ThreadId);
  }
}

//===----------------------------------------------------------------------===//
// Cost model
//===----------------------------------------------------------------------===//

TEST(SpanCostTest, NoSinkHotPathDoesNotAllocate) {
  Registry Reg; // No sink attached.
  // First use of a label allocates its aggregate slot; warm it up.
  {
    Span Warm(Reg, "test.hot");
    Warm.attr("iterations", 3);
  }
  NumAllocations.store(0);
  CountAllocations.store(true);
  for (int I = 0; I != 100; ++I) {
    Span S(Reg, "test.hot");
    S.attr("iterations", I);
    S.attr("converged", true);
    S.attr("dt_s", 0.25);
  }
  CountAllocations.store(false);
  EXPECT_EQ(NumAllocations.load(), 0u);
  // The aggregate side still saw every span.
  MetricsSnapshot Snap = Reg.snapshotMetrics();
  bool Found = false;
  for (const auto &[Name, Stats] : Snap.Timers)
    if (Name == "test.hot") {
      Found = true;
      EXPECT_EQ(Stats.Count, 101u);
    }
  EXPECT_TRUE(Found);
}

TEST(SpanCostTest, FirstSpanOnAFreshThreadDoesNotAllocate) {
  // A thread's first span initializes its thread-locals (thread id,
  // stripe, span-id block, context). None of them may allocate, so a
  // worker that parallelFor just spawned pays no allocation either.
  Registry Reg; // No sink attached.
  Timer &Hot = Reg.timer("test.fresh");
  Counter &Bumps = Reg.counter("test.fresh.count");
  Histogram &Samples = Reg.histogram("test.fresh.samples");
  uint64_t Allocated = 0;
  std::thread Fresh([&] {
    NumAllocations.store(0);
    CountAllocations.store(true);
    {
      Span S(Hot);
      S.attr("iterations", 1);
      ScopedTimer Nested(Hot);
      Bumps.add();
      Samples.record(0.5);
    }
    CountAllocations.store(false);
    Allocated = NumAllocations.load();
  });
  Fresh.join();
  EXPECT_EQ(Allocated, 0u);
  EXPECT_EQ(Reg.timerStats("test.fresh").Count, 2u);
  EXPECT_EQ(Bumps.value(), 1u);
  EXPECT_EQ(Samples.count(), 1u);
}

TEST(SpanAttrTest, OverflowBeyondCapacityIsDropped) {
  Traced T;
  {
    Span S(T.Reg, "test.many");
    for (int I = 0; I != 12; ++I)
      S.attr("k", I);
  }
  ASSERT_EQ(T.Sink->Spans.size(), 1u);
  EXPECT_EQ(T.Sink->Spans[0].Attrs.size(), Span::MaxAttrs);
}

//===----------------------------------------------------------------------===//
// Profiler aggregation
//===----------------------------------------------------------------------===//

namespace {

SpanRecord makeRec(std::string_view Name, uint64_t SpanId,
                   uint64_t ParentId, double StartS, double DurationS) {
  SpanRecord R;
  R.Name = Name;
  R.StartS = StartS;
  R.DurationS = DurationS;
  R.Context.TraceId = 1;
  R.Context.SpanId = SpanId;
  R.Context.ParentId = ParentId;
  R.Context.Depth = ParentId == 0 ? 0 : 1;
  R.Context.ThreadId = 1;
  return R;
}

} // namespace

TEST(ProfilerTest, SelfTimeIsTotalMinusChildren) {
  Profiler Prof;
  // Children complete before their parent, as RAII guarantees.
  Prof.span(makeRec("child", 2, 1, 0.1, 0.4));
  Prof.span(makeRec("child", 3, 1, 0.5, 0.2));
  Prof.span(makeRec("root", 1, 0, 0.0, 1.0));
  ProfileReport R = Prof.report();
  EXPECT_DOUBLE_EQ(R.WallTimeS, 1.0);
  EXPECT_DOUBLE_EQ(R.RootTotalS, 1.0);
  ASSERT_EQ(R.Roots.size(), 1u);
  const ProfileNode &Root = R.Roots[0];
  EXPECT_EQ(Root.Name, "root");
  EXPECT_EQ(Root.Count, 1u);
  EXPECT_DOUBLE_EQ(Root.TotalS, 1.0);
  EXPECT_NEAR(Root.SelfS, 0.4, 1e-12); // 1.0 - (0.4 + 0.2)
  // Same-name children merged into one node.
  ASSERT_EQ(Root.Children.size(), 1u);
  const ProfileNode &Child = Root.Children[0];
  EXPECT_EQ(Child.Count, 2u);
  EXPECT_NEAR(Child.TotalS, 0.6, 1e-12);
  EXPECT_NEAR(Child.SelfS, 0.6, 1e-12); // Leaves keep all their time.
  EXPECT_DOUBLE_EQ(Child.MinS, 0.2);
  EXPECT_DOUBLE_EQ(Child.MaxS, 0.4);
}

TEST(ProfilerTest, AttributesAccumulateAndBoolsCount) {
  Profiler Prof;
  EventField IterA[] = {EventField("iterations", 7LL),
                        EventField("warm_start", true)};
  EventField IterB[] = {EventField("iterations", 5LL),
                        EventField("warm_start", false)};
  SpanRecord A = makeRec("solve", 2, 1, 0.0, 0.1);
  A.Attrs = IterA;
  A.NumAttrs = 2;
  SpanRecord B = makeRec("solve", 3, 1, 0.1, 0.1);
  B.Attrs = IterB;
  B.NumAttrs = 2;
  Prof.span(A);
  Prof.span(B);
  Prof.span(makeRec("root", 1, 0, 0.0, 0.5));
  ProfileReport R = Prof.report();
  ASSERT_EQ(R.Roots.size(), 1u);
  ASSERT_EQ(R.Roots[0].Children.size(), 1u);
  const ProfileNode &Solve = R.Roots[0].Children[0];
  ASSERT_EQ(Solve.Attrs.size(), 2u); // Sorted by key.
  EXPECT_EQ(Solve.Attrs[0].first, "iterations");
  EXPECT_DOUBLE_EQ(Solve.Attrs[0].second.Sum, 12.0);
  EXPECT_EQ(Solve.Attrs[0].second.Count, 2u);
  // Booleans sum as 0/1: one of the two solves warm-started.
  EXPECT_EQ(Solve.Attrs[1].first, "warm_start");
  EXPECT_DOUBLE_EQ(Solve.Attrs[1].second.Sum, 1.0);
}

TEST(ProfilerTest, OrphanedSpansSurfaceAtRootLevel) {
  Profiler Prof;
  // Parent id 99 never closes; the child must not vanish.
  Prof.span(makeRec("stranded", 2, 99, 0.0, 0.3));
  ProfileReport R = Prof.report();
  ASSERT_EQ(R.Roots.size(), 1u);
  EXPECT_EQ(R.Roots[0].Name, "stranded");
  EXPECT_DOUBLE_EQ(R.Roots[0].TotalS, 0.3);
}

TEST(ProfilerTest, QuantilesOrderedAndBounded) {
  Profiler Prof;
  for (int I = 1; I <= 200; ++I)
    Prof.span(makeRec("step", 100 + I, 0, 0.0, 1e-4 * I));
  ProfileReport R = Prof.report();
  ASSERT_EQ(R.Roots.size(), 1u);
  const ProfileNode &Step = R.Roots[0];
  EXPECT_EQ(Step.Count, 200u);
  EXPECT_LE(Step.P50S, Step.P95S);
  EXPECT_LE(Step.P95S, Step.P99S);
  EXPECT_GE(Step.P50S, 0.0);
  EXPECT_LE(Step.P99S, Step.MaxS * (1.0 + 1e-9));
}

TEST(ProfilerTest, JsonReportParsesWithExpectedShape) {
  Profiler Prof;
  Prof.span(makeRec("child", 2, 1, 0.0, 0.25));
  Prof.span(makeRec("root", 1, 0, 0.0, 1.0));
  std::string Json = renderProfileJson(Prof.report(), "unit");
  Expected<JsonValue> Doc = parseJson(Json);
  ASSERT_TRUE(Doc.hasValue()) << Doc.message();
  const JsonValue *Schema = Doc->find("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->StringValue, "skatsim-profile-v1");
  const JsonValue *Roots = Doc->find("roots");
  ASSERT_NE(Roots, nullptr);
  ASSERT_EQ(Roots->Items.size(), 1u);
  const JsonValue *Children = Roots->Items[0].find("children");
  ASSERT_NE(Children, nullptr);
  EXPECT_EQ(Children->Items.size(), 1u);
  const JsonValue *SelfS = Roots->Items[0].find("self_s");
  ASSERT_NE(SelfS, nullptr);
  EXPECT_NEAR(SelfS->NumberValue, 0.75, 1e-12);
}

TEST(ProfilerTest, EndToEndThroughRegistryAndRealSpans) {
  Registry Reg;
  auto Owned = std::make_unique<Profiler>();
  Profiler *Prof = Owned.get();
  Reg.setSink(std::move(Owned));
  constexpr size_t NumItems = 32;
  {
    Span Root(Reg, "run");
    SpanContext RootCtx = Root.context();
    parallelFor(4, NumItems, [&](size_t) {
      ScopedSpanParent Adopt(RootCtx);
      Span Work(Reg, "replicate");
      Work.attr("ok", true);
    });
  }
  ProfileReport R = Prof->report();
  ASSERT_EQ(R.Roots.size(), 1u);
  EXPECT_EQ(R.Roots[0].Name, "run");
  ASSERT_EQ(R.Roots[0].Children.size(), 1u);
  const ProfileNode &Work = R.Roots[0].Children[0];
  EXPECT_EQ(Work.Name, "replicate");
  EXPECT_EQ(Work.Count, NumItems);
  ASSERT_EQ(Work.Attrs.size(), 1u);
  EXPECT_DOUBLE_EQ(Work.Attrs[0].second.Sum, double(NumItems));
  EXPECT_TRUE(Reg.closeSink().isOk());
}
