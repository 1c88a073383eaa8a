//===- tests/thread_safety_test.cpp - Concurrency correctness -------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Exercises the shared-state layers from many threads at once so the
// TSan CI leg (SKATSIM_SANITIZE=thread) sees real interleavings, and the
// Clang -Wthread-safety annotations (support/ThreadSafety.h) are checked
// against the access patterns the library actually uses. Every assertion
// is exact: lock-based aggregation must lose nothing, and the sweep
// report stays bit-identical whatever the thread count or observer load.
// threadsafety_misuse.cpp rides along macro-free as the positive control
// for the Clang negative-compile cases registered in CMakeLists.txt.
//
//===----------------------------------------------------------------------===//

#include "faults/Scenario.h"
#include "faults/Sweep.h"
#include "support/Parallel.h"
#include "support/ThreadSafety.h"
#include "telemetry/Span.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace rcs;
using namespace rcs::faults;

namespace rcs {
// Defined in threadsafety_misuse.cpp — the macro-free positive control
// for the negcompile_threadsafety_* targets.
int threadSafetyMisuseAnchor();
} // namespace rcs

TEST(ThreadSafetyTest, MisuseControlFollowsLockDiscipline) {
  EXPECT_EQ(threadSafetyMisuseAnchor(), 2);
}

//===----------------------------------------------------------------------===//
// rcs::Mutex / rcs::LockGuard wrapper semantics
//===----------------------------------------------------------------------===//

TEST(ThreadSafetyTest, MutexExcludesOtherThreadsWhileHeld) {
  rcs::Mutex M;
  M.lock();
  // Another thread must see the mutex as busy; the same state from this
  // thread would deadlock, which is exactly what the wrapper inherits
  // from std::mutex.
  bool OtherThreadAcquired = true;
  std::thread Prober([&] {
    OtherThreadAcquired = M.tryLock();
    if (OtherThreadAcquired)
      M.unlock();
  });
  Prober.join();
  EXPECT_FALSE(OtherThreadAcquired);
  M.unlock();

  // Released: acquirable again, from any thread.
  bool Reacquired = M.tryLock();
  EXPECT_TRUE(Reacquired);
  if (Reacquired)
    M.unlock();
}

TEST(ThreadSafetyTest, LockGuardSerializesGuardedIncrements) {
  // The canonical guarded-counter shape every annotated struct in src/
  // follows (faults::runSweep's ProgressState, telemetry::Histogram).
  struct Tally {
    rcs::Mutex Mutex;
    long Value RCS_GUARDED_BY(Mutex) = 0;
  };
  Tally Shared;
  constexpr int Items = 64;
  constexpr int BumpsPerItem = 500;
  parallelFor(4, Items, [&](size_t) {
    for (int I = 0; I != BumpsPerItem; ++I) {
      rcs::LockGuard Lock(Shared.Mutex);
      ++Shared.Value;
    }
  });
  rcs::LockGuard Lock(Shared.Mutex);
  EXPECT_EQ(Shared.Value, static_cast<long>(Items) * BumpsPerItem);
}

//===----------------------------------------------------------------------===//
// Registry hammer
//===----------------------------------------------------------------------===//

namespace {

/// Keeps every finished span's duration, per label. Sinks run under the
/// registry lock, so it needs no lock of its own; the owner reads Seen
/// after the workers have joined.
class DurationSink final : public telemetry::EventSink {
public:
  explicit DurationSink(std::map<std::string, std::vector<double>> &Seen)
      : Seen(Seen) {}

  void instant(double, std::string_view, const telemetry::EventField *,
               size_t) override {}
  void span(const telemetry::SpanRecord &Rec) override {
    Seen[std::string(Rec.Name)].push_back(Rec.DurationS);
  }
  Status close() override { return Status::ok(); }

private:
  std::map<std::string, std::vector<double>> &Seen;
};

} // namespace

TEST(ThreadSafetyTest, RegistryHammerLosesNoCounterOrHistogramUpdate) {
  telemetry::Registry Reg;
  // A second registry records the same timer labels with a sink attached,
  // so its exact durations are known; the two registries must not mix.
  std::map<std::string, std::vector<double>> Durations;
  telemetry::Registry Traced;
  Traced.setSink(std::make_unique<DurationSink>(Durations));
  const char *const Labels[] = {"hammer.span", "hammer.timer"};
  telemetry::Timer &SpanHandle = Reg.timer("hammer.span");
  telemetry::Timer &TimerHandle = Reg.timer("hammer.timer");
  telemetry::Timer &TracedSpanHandle = Traced.timer("hammer.span");
  telemetry::Timer &TracedTimerHandle = Traced.timer("hammer.timer");

  // Several parallelFor calls, so the later rounds record on new threads
  // while earlier recording threads have already exited.
  constexpr int Rounds = 3;
  constexpr int Items = 64;
  constexpr int OpsPerItem = 100;
  // Per-item metric names force concurrent map insertion alongside the
  // hot-path bumps through cached references.
  std::vector<std::string> Names;
  Names.reserve(Items);
  for (int I = 0; I != Items; ++I)
    Names.push_back("hammer.item." + std::to_string(I));

  for (int Round = 0; Round != Rounds; ++Round)
    parallelFor(4, Items, [&](size_t Item) {
      telemetry::Counter &Mine = Reg.counter(Names[Item]);
      for (int I = 0; I != OpsPerItem; ++I) {
        Reg.counter("hammer.total").add(1);
        Reg.histogram("hammer.sample").record(1.0);
        Reg.gauge("hammer.last_item").set(static_cast<double>(Item));
        Mine.add(1);
        // Spans and scoped timers, alternately through call-site handles
        // and through the string constructors, into both registries.
        if (I % 2 == 0) {
          { telemetry::Span S(SpanHandle); }
          { telemetry::ScopedTimer T(TimerHandle); }
          { telemetry::Span S(TracedSpanHandle); }
          { telemetry::ScopedTimer T(TracedTimerHandle); }
        } else {
          { telemetry::Span S(Reg, "hammer.span"); }
          { telemetry::ScopedTimer T(Reg, "hammer.timer"); }
          { telemetry::Span S(Traced, "hammer.span"); }
          { telemetry::ScopedTimer T(Traced, "hammer.timer"); }
        }
        // Interleave full snapshots (Registry lock nested over every
        // stripe lock) with the recording threads.
        if (I % 32 == 0)
          (void)Reg.snapshotMetrics();
      }
    });
  ASSERT_TRUE(Traced.closeSink().ok());

  constexpr uint64_t Total =
      static_cast<uint64_t>(Rounds) * Items * OpsPerItem;
  EXPECT_EQ(Reg.counter("hammer.total").value(), Total);
  EXPECT_EQ(Reg.histogram("hammer.sample").count(), Total);
  // Every sample is exactly 1.0, so the sum is exact in a double.
  EXPECT_EQ(Reg.histogram("hammer.sample").sum(),
            static_cast<double>(Total));
  EXPECT_EQ(Reg.histogram("hammer.sample").minValue(), 1.0);
  EXPECT_EQ(Reg.histogram("hammer.sample").maxValue(), 1.0);
  for (int I = 0; I != Items; ++I)
    EXPECT_EQ(Reg.counter(Names[I]).value(),
              static_cast<uint64_t>(Rounds) * OpsPerItem);

  for (const char *Label : Labels) {
    SCOPED_TRACE(Label);
    // No sink: every span counted once, whichever thread closed it.
    telemetry::SpanStats Plain = Reg.timerStats(Label);
    EXPECT_EQ(Plain.Count, Total);
    EXPECT_GE(Plain.MinS, 0.0);
    EXPECT_LE(Plain.MinS, Plain.MaxS);
    EXPECT_GE(Plain.TotalS, Plain.MaxS);
    // With a sink: the merged stripes hold exactly the durations the sink
    // saw. Min and max are exact; the total sums in another order.
    const std::vector<double> &Seen = Durations[Label];
    ASSERT_EQ(Seen.size(), Total);
    telemetry::SpanStats Merged = Traced.timerStats(Label);
    EXPECT_EQ(Merged.Count, Total);
    EXPECT_EQ(Merged.MinS, *std::min_element(Seen.begin(), Seen.end()));
    EXPECT_EQ(Merged.MaxS, *std::max_element(Seen.begin(), Seen.end()));
    double SeenTotalS = std::accumulate(Seen.begin(), Seen.end(), 0.0);
    EXPECT_NEAR(Merged.TotalS, SeenTotalS, 1e-9 * SeenTotalS);
  }

  // The snapshot carries the same merge timerStats reads.
  telemetry::MetricsSnapshot Snapshot = Reg.snapshotMetrics();
  EXPECT_EQ(Snapshot.Counters.size(), static_cast<size_t>(Items) + 1);
  ASSERT_EQ(Snapshot.Histograms.size(), 1u);
  EXPECT_EQ(Snapshot.Histograms[0].second.Count, Total);
  ASSERT_EQ(Snapshot.Timers.size(), 2u);
  for (const auto &[Label, Stats] : Snapshot.Timers) {
    telemetry::SpanStats Direct = Reg.timerStats(Label);
    EXPECT_EQ(Stats.Count, Direct.Count) << Label;
    EXPECT_EQ(Stats.TotalS, Direct.TotalS) << Label;
    EXPECT_EQ(Stats.MinS, Direct.MinS) << Label;
    EXPECT_EQ(Stats.MaxS, Direct.MaxS) << Label;
  }
  // The traced registry holds only its own timers.
  telemetry::MetricsSnapshot TracedSnapshot = Traced.snapshotMetrics();
  EXPECT_TRUE(TracedSnapshot.Counters.empty());
  EXPECT_TRUE(TracedSnapshot.Histograms.empty());
  EXPECT_EQ(TracedSnapshot.Timers.size(), 2u);

  // Reset zeroes every stripe that any of the threads wrote, and leaves
  // the other registry alone.
  Reg.resetMetrics();
  EXPECT_EQ(Reg.counter("hammer.total").value(), 0u);
  EXPECT_EQ(Reg.histogram("hammer.sample").count(), 0u);
  for (const char *Label : Labels) {
    telemetry::SpanStats Zeroed = Reg.timerStats(Label);
    EXPECT_EQ(Zeroed.Count, 0u) << Label;
    EXPECT_EQ(Zeroed.TotalS, 0.0) << Label;
    EXPECT_EQ(Zeroed.MinS, 0.0) << Label;
    EXPECT_EQ(Zeroed.MaxS, 0.0) << Label;
    EXPECT_EQ(Traced.timerStats(Label).Count, Total) << Label;
  }
  // Handles stay live across the reset.
  { telemetry::Span S(SpanHandle); }
  EXPECT_EQ(Reg.timerStats("hammer.span").Count, 1u);
}

//===----------------------------------------------------------------------===//
// Sweep vs progress observer
//===----------------------------------------------------------------------===//

namespace {

Scenario makeHammerScenario() {
  Scenario S;
  S.Name = "thread-safety-sweep";
  S.DurationS = 0.75 * 3600.0;
  S.Seed = 23;
  S.Policy.CriticalPeriodsToShutdown = 2;
  HazardSpec Hazard;
  Hazard.Kind = FaultKind::PumpFailure;
  Hazard.Id = "pump";
  Hazard.MttfHours = 0.8;
  Hazard.RepairHours = 0.25;
  S.Hazards.push_back(Hazard);
  return S;
}

} // namespace

TEST(ThreadSafetyTest, SweepWithObserverAtFourThreadsIsBitIdentical) {
  Scenario S = makeHammerScenario();

  // Baseline: serial, unobserved.
  SweepConfig Serial;
  Serial.NumReplicates = 8;
  Serial.NumThreads = 1;

  // Stress: four workers racing the progress lock on every replicate.
  SweepConfig Observed = Serial;
  Observed.NumThreads = 4;
  Observed.ProgressPeriodS = 0.0;
  std::vector<SweepProgress> Updates;
  Observed.OnProgress = [&Updates](const SweepProgress &P) {
    Updates.push_back(P);
  };

  auto A = runSweep(S, Serial);
  auto B = runSweep(S, Observed);
  ASSERT_TRUE(A.hasValue()) << A.message();
  ASSERT_TRUE(B.hasValue()) << B.message();

  EXPECT_EQ(A->MeanAvailabilityFraction, B->MeanAvailabilityFraction);
  EXPECT_EQ(A->MeanThroughputRetainedFraction,
            B->MeanThroughputRetainedFraction);
  EXPECT_EQ(A->MeanMaxJunctionC, B->MeanMaxJunctionC);
  EXPECT_EQ(A->CriticalFraction, B->CriticalFraction);
  EXPECT_EQ(A->MttfEstimateHours, B->MttfEstimateHours);
  EXPECT_EQ(A->JunctionHistogramCounts, B->JunctionHistogramCounts);
  ASSERT_EQ(A->Replicates.size(), B->Replicates.size());
  for (size_t R = 0; R != A->Replicates.size(); ++R) {
    EXPECT_EQ(A->Replicates[R].AvailabilityFraction,
              B->Replicates[R].AvailabilityFraction);
    EXPECT_EQ(A->Replicates[R].MaxJunctionC,
              B->Replicates[R].MaxJunctionC);
    EXPECT_EQ(A->Replicates[R].TimeToFirstCriticalS,
              B->Replicates[R].TimeToFirstCriticalS);
  }

  // The observer stream itself: serialized under the progress lock, so
  // Completed is monotone and the final update covers the whole sweep.
  ASSERT_GE(Updates.size(), 2u);
  for (size_t U = 1; U != Updates.size(); ++U)
    EXPECT_GE(Updates[U].Completed, Updates[U - 1].Completed);
  EXPECT_EQ(Updates.back().Completed, Observed.NumReplicates);
  EXPECT_EQ(Updates.back().Total, Observed.NumReplicates);
}

//===----------------------------------------------------------------------===//
// Cross-thread span adoption
//===----------------------------------------------------------------------===//

namespace {

/// Records every span's name and causal identity. Invoked under the
/// registry lock per the EventSink contract, so no locking of its own;
/// the owner reads Seen only after the registry joins/flushes.
class RecordingSink final : public telemetry::EventSink {
public:
  explicit RecordingSink(
      std::vector<std::pair<std::string, telemetry::SpanContext>> &Seen)
      : Seen(Seen) {}

  void instant(double, std::string_view, const telemetry::EventField *,
               size_t) override {}
  void span(const telemetry::SpanRecord &Rec) override {
    Seen.emplace_back(std::string(Rec.Name), Rec.Context);
  }
  Status close() override { return Status::ok(); }

private:
  std::vector<std::pair<std::string, telemetry::SpanContext>> &Seen;
};

} // namespace

TEST(ThreadSafetyTest, CrossThreadSpanAdoptionKeepsCausality) {
  telemetry::Registry Reg;
  std::vector<std::pair<std::string, telemetry::SpanContext>> Seen;
  Reg.setSink(std::make_unique<RecordingSink>(Seen));

  constexpr int Items = 16;
  uint64_t RootSpan = 0;
  uint64_t RootTrace = 0;
  {
    telemetry::Span Root(Reg, "adopt.root");
    const telemetry::SpanContext RootCtx = Root.context();
    RootSpan = RootCtx.SpanId;
    RootTrace = RootCtx.TraceId;
    parallelFor(4, Items, [&](size_t Item) {
      // The pool thread adopts the submitting thread's open span, so
      // every worker span parents under the root across the thread
      // boundary — the same handoff faults::runSweep does.
      telemetry::ScopedSpanParent Adopt(RootCtx);
      telemetry::Span Worker(Reg, "adopt.worker");
      Worker.attr("item", static_cast<long long>(Item));
    });
  }
  ASSERT_TRUE(Reg.closeSink().ok());

  int Workers = 0;
  int Roots = 0;
  for (const auto &[Name, Ctx] : Seen) {
    if (Name == "adopt.worker") {
      ++Workers;
      EXPECT_EQ(Ctx.ParentId, RootSpan);
      EXPECT_EQ(Ctx.TraceId, RootTrace);
      EXPECT_EQ(Ctx.Depth, 1);
    } else if (Name == "adopt.root") {
      ++Roots;
      EXPECT_EQ(Ctx.ParentId, 0u);
    }
  }
  EXPECT_EQ(Workers, Items);
  EXPECT_EQ(Roots, 1);

  // The aggregate view agrees exactly with the sink's view.
  EXPECT_EQ(Reg.timerStats("adopt.worker").Count,
            static_cast<uint64_t>(Items));
  EXPECT_EQ(Reg.timerStats("adopt.root").Count, 1u);
}
