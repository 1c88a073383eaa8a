//===- faults/Sweep.cpp - Parallel reliability sweeps ---------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "faults/Sweep.h"

#include "support/Parallel.h"
#include "support/ThreadSafety.h"
#include "telemetry/Span.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cmath>

using namespace rcs;
using namespace rcs::faults;

Expected<SweepReport> rcs::faults::runSweep(const Scenario &S,
                                            const SweepConfig &Config) {
  if (Config.NumReplicates < 1)
    return Expected<SweepReport>::error("sweep: need at least 1 replicate");

  // Every metric is resolved once per process, so no replicate looks a
  // name up under the registry mutex.
  telemetry::Registry &Telemetry = telemetry::Registry::global();
  static telemetry::Timer &SweepTimer = Telemetry.timer("faults.sweep.run");
  static telemetry::Timer &ReplicateTimer =
      Telemetry.timer("faults.sweep.replicate");
  static telemetry::Gauge &DoneGauge =
      Telemetry.gauge("faults.sweep.progress.replicates_done");
  static telemetry::Gauge &EtaGauge =
      Telemetry.gauge("faults.sweep.progress.eta_s");
  static telemetry::Gauge &AvailabilityGauge =
      Telemetry.gauge("faults.sweep.progress.availability_estimate");
  static telemetry::Counter &ReplicateCount =
      Telemetry.counter("faults.sweep.replicates");
  static telemetry::Counter &CriticalCount =
      Telemetry.counter("faults.sweep.criticals");
  static telemetry::Counter &BreachCount =
      Telemetry.counter("faults.sweep.audit_breaches");
  static telemetry::Histogram &JunctionHistogram =
      Telemetry.histogram("faults.sweep.max_junction_C");

  telemetry::Span SweepSpan(SweepTimer);
  SweepSpan.attr("replicates", static_cast<long long>(Config.NumReplicates));
  SweepSpan.attr("threads", static_cast<long long>(Config.NumThreads));
  const telemetry::SpanContext SweepCtx = SweepSpan.context();

  // Side-channel progress tallies. These feed OnProgress and live
  // gauges only — the report below reduces over the Slot vector in
  // replicate order and never reads them, so enabling progress cannot
  // change the report.
  struct ProgressState {
    rcs::Mutex Mutex;
    double StartS RCS_GUARDED_BY(Mutex) = 0.0;
    double LastEmitS RCS_GUARDED_BY(Mutex) = 0.0;
    int Completed RCS_GUARDED_BY(Mutex) = 0;
    int Criticals RCS_GUARDED_BY(Mutex) = 0;
    double AvailabilitySum RCS_GUARDED_BY(Mutex) = 0.0;
  };
  ProgressState Progress;
  {
    // Locked even though workers have not started yet: it costs one
    // uncontended acquire and keeps the thread-safety analysis exact.
    rcs::LockGuard Lock(Progress.Mutex);
    Progress.StartS = Telemetry.nowSeconds();
    Progress.LastEmitS = Progress.StartS;
  }
  auto NoteReplicateDone = [&](const ScenarioOutcome *Out, bool Final) {
    SweepProgress Snapshot;
    {
      rcs::LockGuard Lock(Progress.Mutex);
      if (Out) {
        ++Progress.Completed;
        Progress.AvailabilitySum += Out->AvailabilityFraction;
        if (Out->TimeToFirstCriticalS >= 0.0)
          ++Progress.Criticals;
      }
      const double NowS = Telemetry.nowSeconds();
      if (!Final && NowS - Progress.LastEmitS < Config.ProgressPeriodS)
        return;
      Progress.LastEmitS = NowS;
      Snapshot.Completed = Progress.Completed;
      Snapshot.Total = Config.NumReplicates;
      Snapshot.ElapsedS = NowS - Progress.StartS;
      if (Progress.Completed > 0) {
        Snapshot.EtaS = Snapshot.ElapsedS / Progress.Completed *
                        (Config.NumReplicates - Progress.Completed);
        Snapshot.MeanAvailabilityFraction =
            Progress.AvailabilitySum / Progress.Completed;
      }
      Snapshot.Criticals = Progress.Criticals;
      DoneGauge.set(Snapshot.Completed);
      EtaGauge.set(Snapshot.EtaS);
      AvailabilityGauge.set(Snapshot.MeanAvailabilityFraction);
      // Invoke under the lock so callbacks observe monotone Completed.
      if (Config.OnProgress)
        Config.OnProgress(Snapshot);
    }
  };

  // One slot per replicate, filled on stream (Seed, replicate); the
  // reduction below walks slots in replicate order, so the report is
  // bit-identical at any thread count.
  struct Slot {
    bool Ok = false;
    ScenarioOutcome Outcome;
  };
  std::vector<Slot> Slots(static_cast<size_t>(Config.NumReplicates));
  // Replicate 0 is also the check that the scenario can run at all (a bad
  // design, a missing module config): it runs in the pool like the rest,
  // and if it fails the sweep returns its status. Replicates claimed
  // after that failure skip their run.
  Status FirstStatus = Status::ok(); // Written only by replicate 0.
  std::atomic<bool> FirstFailed{false};
  parallelFor(Config.NumThreads,
              static_cast<size_t>(Config.NumReplicates),
              [&](size_t Replicate) {
                if (FirstFailed.load(std::memory_order_relaxed))
                  return;
                // Parent the replicate span to the sweep root even when
                // this closure runs on a pool thread.
                telemetry::ScopedSpanParent Adopt(SweepCtx);
                telemetry::Span ReplicateSpan(ReplicateTimer);
                ReplicateSpan.attr("replicate",
                                   static_cast<long long>(Replicate));
                auto Out = runScenario(S, Replicate);
                ReplicateSpan.attr("ok", static_cast<bool>(Out));
                if (!Out && Replicate == 0) {
                  FirstStatus = Out.status();
                  FirstFailed.store(true, std::memory_order_relaxed);
                  return;
                }
                if (Out) {
                  ReplicateSpan.attr("max_junction_C", Out->MaxJunctionC);
                  Slots[Replicate].Ok = true;
                  Slots[Replicate].Outcome = std::move(*Out);
                }
                NoteReplicateDone(
                    Slots[Replicate].Ok ? &Slots[Replicate].Outcome : nullptr,
                    /*Final=*/false);
              });
  if (!FirstStatus)
    return Expected<SweepReport>(FirstStatus);
  NoteReplicateDone(nullptr, /*Final=*/true);

  SweepReport Report;
  Report.NumReplicates = Config.NumReplicates;
  Report.Seed = S.Seed;
  Report.JunctionHistogramCounts.assign(SweepReport::NumHistogramBins, 0);

  double AvailabilitySum = 0.0, ThroughputSum = 0.0, JunctionSum = 0.0;
  double OperatingHours = 0.0;
  int Criticals = 0, Succeeded = 0;
  const double HorizonHours = S.DurationS / 3600.0;
  for (size_t R = 0; R != Slots.size(); ++R) {
    const Slot &Entry = Slots[R];
    if (!Entry.Ok) {
      ++Report.FailedReplicates;
      continue;
    }
    const ScenarioOutcome &Out = Entry.Outcome;
    ++Succeeded;
    ReplicateSummary Summary;
    Summary.Replicate = static_cast<int>(R);
    Summary.AvailabilityFraction = Out.AvailabilityFraction;
    Summary.ThroughputRetainedFraction = Out.ThroughputRetainedFraction;
    Summary.MaxJunctionC = Out.MaxJunctionC;
    Summary.TimeToFirstCriticalS = Out.TimeToFirstCriticalS;
    Summary.FaultsInjected = Out.FaultsInjected;
    Summary.ModulesShutDown = Out.ModulesShutDown;
    Summary.SafeDegradedEnd = Out.SafeDegradedEnd;
    Summary.AuditMaxEnergyFraction = Out.AuditMaxEnergyFraction;
    Summary.AuditViolationCount = Out.AuditViolationCount;
    Summary.AuditWithinBudget = Out.AuditWithinBudget;
    Report.Replicates.push_back(Summary);

    Report.AuditWorstEnergyFraction = std::max(
        Report.AuditWorstEnergyFraction, Out.AuditMaxEnergyFraction);
    if (!Out.AuditWithinBudget)
      ++Report.AuditBudgetBreaches;

    AvailabilitySum += Out.AvailabilityFraction;
    ThroughputSum += Out.ThroughputRetainedFraction;
    JunctionSum += Out.MaxJunctionC;
    Report.MinAvailabilityFraction =
        std::min(Report.MinAvailabilityFraction, Out.AvailabilityFraction);
    Report.PeakJunctionC = std::max(Report.PeakJunctionC, Out.MaxJunctionC);
    if (Out.TimeToFirstCriticalS >= 0.0) {
      ++Criticals;
      OperatingHours += Out.TimeToFirstCriticalS / 3600.0;
    } else {
      OperatingHours += HorizonHours;
    }
    for (double Sample : Out.JunctionSampleC) {
      double Offset =
          (Sample - SweepReport::HistogramMinC) / SweepReport::HistogramBinWidthC;
      int Bin = std::clamp(static_cast<int>(std::floor(Offset)), 0,
                           SweepReport::NumHistogramBins - 1);
      ++Report.JunctionHistogramCounts[static_cast<size_t>(Bin)];
    }
  }
  if (Succeeded != 0) {
    Report.MeanAvailabilityFraction = AvailabilitySum / Succeeded;
    Report.MeanThroughputRetainedFraction = ThroughputSum / Succeeded;
    Report.MeanMaxJunctionC = JunctionSum / Succeeded;
    Report.CriticalFraction = static_cast<double>(Criticals) / Succeeded;
  }
  if (Criticals > 0)
    Report.MttfEstimateHours = OperatingHours / Criticals;

  ReplicateCount.add(static_cast<uint64_t>(Succeeded));
  CriticalCount.add(static_cast<uint64_t>(Criticals));
  BreachCount.add(static_cast<uint64_t>(Report.AuditBudgetBreaches));
  for (const ReplicateSummary &Summary : Report.Replicates)
    JunctionHistogram.record(Summary.MaxJunctionC);
  return Report;
}
