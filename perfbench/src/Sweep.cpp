//===- perfbench/src/Sweep.cpp - Reliability-campaign workload ------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Campaigns of faults::runSweep over three module-level scenarios and one
// rack-level one, alternately at nproc workers and on one worker. The
// heaviest production
// path (sim step loop, fluids lookups, small dense thermal steps, audit,
// monitor) and the only one running many plants at once, so shared-state
// contention shows here. No hydraulic Newton solve, no sparse solve.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"

#include "faults/Engine.h"
#include "faults/Scenario.h"
#include "support/Parallel.h"

#include <algorithm>
#include <optional>

using namespace rcs;
using namespace perfbench;

bool perfbench::sameSweepReport(const faults::SweepReport &A,
                                const faults::SweepReport &B) {
  if (A.Replicates.size() != B.Replicates.size())
    return false;
  for (size_t I = 0; I != A.Replicates.size(); ++I) {
    const faults::ReplicateSummary &X = A.Replicates[I];
    const faults::ReplicateSummary &Y = B.Replicates[I];
    if (X.Replicate != Y.Replicate ||
        X.AvailabilityFraction != Y.AvailabilityFraction ||
        X.ThroughputRetainedFraction != Y.ThroughputRetainedFraction ||
        X.MaxJunctionC != Y.MaxJunctionC ||
        X.TimeToFirstCriticalS != Y.TimeToFirstCriticalS ||
        X.FaultsInjected != Y.FaultsInjected ||
        X.ModulesShutDown != Y.ModulesShutDown ||
        X.SafeDegradedEnd != Y.SafeDegradedEnd ||
        X.AuditMaxEnergyFraction != Y.AuditMaxEnergyFraction ||
        X.AuditViolationCount != Y.AuditViolationCount ||
        X.AuditWithinBudget != Y.AuditWithinBudget)
      return false;
  }
  return A.NumReplicates == B.NumReplicates && A.Seed == B.Seed &&
         A.MeanAvailabilityFraction == B.MeanAvailabilityFraction &&
         A.MinAvailabilityFraction == B.MinAvailabilityFraction &&
         A.MeanThroughputRetainedFraction ==
             B.MeanThroughputRetainedFraction &&
         A.MeanMaxJunctionC == B.MeanMaxJunctionC &&
         A.PeakJunctionC == B.PeakJunctionC &&
         A.CriticalFraction == B.CriticalFraction &&
         A.MttfEstimateHours == B.MttfEstimateHours &&
         A.JunctionHistogramCounts == B.JunctionHistogramCounts &&
         A.FailedReplicates == B.FailedReplicates &&
         A.AuditWorstEnergyFraction == B.AuditWorstEnergyFraction &&
         A.AuditBudgetBreaches == B.AuditBudgetBreaches;
}

namespace {

constexpr int ReplicatesPerCampaign =
    3 * SweepModuleReplicates + SweepRackReplicates;

/// Simulated time of each plant's warm-up run, s.
constexpr double SweepWarmupS = 1800.0;

/// One sweep of a campaign: a scenario and its replicate count.
struct SweepSpec {
  faults::Scenario Scenario;
  int Replicates = 0;
};
using Campaign = std::vector<SweepSpec>;

struct CampaignRun {
  double WallS = 0.0;
  std::vector<faults::SweepReport> Reports;
};

/// Runs every sweep of the campaign on \p Workers. With \p ReplicateMs
/// set, per-replicate host times are taken from the progress callback
/// (meaningful on one worker, where completions are back to back).
Expected<CampaignRun> runCampaign(const Campaign &C, int Workers,
                                  std::vector<double> *ReplicateMs,
                                  bool Trace) {
  CampaignRun Run;
  Clock::time_point Start = Clock::now();
  for (const SweepSpec &Spec : C) {
    faults::SweepConfig Config;
    Config.NumReplicates = Spec.Replicates;
    Config.NumThreads = Workers;
    int LastCompleted = 0;
    double LastElapsedS = 0.0;
    if (ReplicateMs) {
      Config.ProgressPeriodS = 0.0;
      Config.OnProgress = [&](const faults::SweepProgress &P) {
        if (P.Completed == LastCompleted)
          return;
        ReplicateMs->push_back((P.ElapsedS - LastElapsedS) * 1e3);
        LastCompleted = P.Completed;
        LastElapsedS = P.ElapsedS;
      };
    }
    BenchSpan Span(Trace, "bench.faults.sweep");
    Expected<faults::SweepReport> Report =
        faults::runSweep(Spec.Scenario, Config);
    if (!Report)
      return Expected<CampaignRun>(Report.status());
    Run.Reports.push_back(std::move(*Report));
  }
  Run.WallS = secondsBetween(Start, Clock::now());
  return Run;
}

struct Pass {
  std::vector<double> Rate[2]; ///< Replicates per second, per leg.
  std::vector<double> ReplicateMs1t;
  double Replicates = 0.0;
  double WallS = 0.0;
  uint64_t FailedReplicates = 0;
  int BudgetBreaches = 0;
  double WorstEnergyFraction = 0.0;
  uint64_t ReportsChecked = 0;
  uint64_t ReportsDiffering = 0;
  uint64_t CampaignErrors = 0;
};

/// Alternates nproc-worker and one-worker campaigns for \p Seconds, and
/// until the one-worker leg holds enough replicate times. Leg 0 is
/// nproc workers, leg 1 one worker.
Pass measure(const Campaign &C, int Workers, double Seconds,
             TraceSession *Trace, std::optional<CampaignRun> &Reference,
             SetupTimer *Setups) {
  Pass P;
  Clock::time_point Start = Clock::now();
  for (int Round = 0;
       Round < 3 ||
       P.ReplicateMs1t.size() < minSamples(ReplicatesPerCampaign) ||
       secondsBetween(Start, Clock::now()) < Seconds;
       ++Round) {
    for (int K = 0; K != 2; ++K) {
      const int Leg = (Round + K) % 2;
      if (Trace)
        Trace->setLeg(Leg);
      if (Setups)
        Setups->between();
      Expected<CampaignRun> Run =
          runCampaign(C, Leg == 0 ? Workers : 1,
                      Leg == 1 ? &P.ReplicateMs1t : nullptr, Trace);
      if (!Run) {
        ++P.CampaignErrors;
        std::printf("FAILED  campaign: %s\n", Run.message().c_str());
        continue;
      }
      P.Rate[Leg].push_back(ReplicatesPerCampaign / Run->WallS);
      P.Replicates += ReplicatesPerCampaign;
      P.WallS += Run->WallS;
      P.BudgetBreaches = 0;
      for (const faults::SweepReport &Report : Run->Reports) {
        P.FailedReplicates += static_cast<uint64_t>(Report.FailedReplicates);
        P.BudgetBreaches += Report.AuditBudgetBreaches;
        P.WorstEnergyFraction =
            std::max(P.WorstEnergyFraction, Report.AuditWorstEnergyFraction);
      }
      // Every campaign, at either worker count, must reproduce the first
      // one exactly; the comparison runs outside the timed campaign.
      if (!Reference) {
        Reference = std::move(*Run);
        continue;
      }
      ++P.ReportsChecked;
      for (size_t I = 0; I != Run->Reports.size(); ++I)
        if (!sameSweepReport(Run->Reports[I], Reference->Reports[I])) {
          ++P.ReportsDiffering;
          break;
        }
    }
  }
  return P;
}

} // namespace

void perfbench::runSweepWorkload(const Options &Opts, Result &R) {
  Campaign C;
  bool ParsedOk = true;
  SetupTimer Setups([&] {
    C.clear();
    std::vector<std::string> Texts = sweepModuleScenarios(Opts.Seed);
    Texts.push_back(sweepRackScenario(Opts.Seed));
    for (const std::string &Text : Texts) {
      Expected<faults::Scenario> S = faults::parseScenario(Text);
      ParsedOk = static_cast<bool>(S);
      if (ParsedOk) {
        // Warm-up: a fault-free stretch of each plant fills lazily built
        // tables. Without the seeded faults it costs the same every seed.
        faults::Scenario Warm = *S;
        Warm.Faults.clear();
        Warm.Hazards.clear();
        Warm.DurationS = SweepWarmupS;
        ParsedOk = static_cast<bool>(faults::runScenario(Warm));
      }
      if (!ParsedOk)
        break;
      const int Replicates =
          S->RackLevel ? SweepRackReplicates : SweepModuleReplicates;
      C.push_back({std::move(*S), Replicates});
    }
  }, Opts.Seconds);
  for (size_t I = 0; I != SetupTimer::Before && ParsedOk; ++I)
    Setups.once();
  R.check(ParsedOk, "generated scenarios parse and run");
  if (!ParsedOk)
    return;

  const int Workers =
      std::min(clampThreadCount(Opts.Nproc), SweepModuleReplicates);
  R.context("replicates_per_campaign",
            "3 module scenarios x " + std::to_string(SweepModuleReplicates) +
                " (" + std::to_string(SweepModuleHorizonH) +
                " h) + 1 rack scenario x " +
                std::to_string(SweepRackReplicates) + " (" +
                std::to_string(SweepRackHorizonH) + " h)");
  R.context("workers_per_leg", std::to_string(Workers) + " and 1");

  std::optional<CampaignRun> Reference;
  CounterSnapshot Before = snapshotCounters();
  Pass P = measure(C, Workers, Opts.Seconds, nullptr, Reference, &Setups);
  CounterSnapshot After = snapshotCounters();
  Setups.report(R);
  R.check(ParsedOk, "set-ups during the run parse and run");

  R.context("campaigns", std::to_string(P.Rate[0].size()) + " at " +
                             std::to_string(Workers) + " workers, " +
                             std::to_string(P.Rate[1].size()) +
                             " on one worker");
  for (int Leg = 0; Leg != 2; ++Leg) {
    std::string Rates;
    for (double Rate : P.Rate[Leg])
      Rates += std::to_string(static_cast<int>(Rate)) + " ";
    R.context(Leg == 0 ? "campaign_rates" : "campaign_rates_1t", Rates);
  }
  R.check(P.CampaignErrors == 0, "every campaign ran");
  R.tally(static_cast<uint64_t>(P.Replicates), P.FailedReplicates,
          "replicates completed");
  R.check(P.ReportsDiffering == 0,
          "reports at " + std::to_string(Workers) +
              " workers and at one worker are identical (" +
              std::to_string(P.ReportsChecked) + " compared)");
  R.check(counterDelta(Before, After, "hydraulics.flow.solves") == 0,
          "sweep makes no hydraulic solve");
  R.check(counterDelta(Before, After, "thermal.network.sparse_solves") == 0,
          "sweep makes no sparse thermal solve");

  // A parallel figure measured on fewer than two workers gates nothing.
  const bool Parallel = Workers >= 2;
  R.check(Parallel, "the nproc leg ran on at least 2 workers");
  const double Rate = Parallel ? median(P.Rate[0]) : 0.0;
  const double Rate1t = median(P.Rate[1]);
  R.metric("ops_per_s", Rate, "1/s",
           "replicates per second at " + std::to_string(Workers) +
               " workers, median of " + std::to_string(P.Rate[0].size()));
  R.metric("ops_per_s_1t", Rate1t, "1/s",
           "one worker, median of " + std::to_string(P.Rate[1].size()));
  R.check(P.ReplicateMs1t.size() == P.Rate[1].size() * ReplicatesPerCampaign,
          "one host time per one-worker replicate");
  emitOpPercentiles(R, P.ReplicateMs1t, ReplicatesPerCampaign);
  R.metric("support.workers", Workers, "count");
  if (Parallel)
    R.metric("support.parallel_efficiency", Rate / (Workers * Rate1t),
             "fraction");
  R.metric("faults.failed_replicates", static_cast<double>(P.FailedReplicates),
           "count");
  R.metric("audit.budget_breaches", P.BudgetBreaches, "count",
           "per campaign; recorded, not a failure");
  R.metric("audit.worst_energy_frac", P.WorstEnergyFraction, "fraction");
  if (!Opts.Trace)
    return;

  // Traced pass: same campaigns with the profiler attached.
  TraceSession Trace({"faults.sweep.replicate"});
  CounterSnapshot TBefore = snapshotCounters();
  Pass T = measure(C, Workers, Opts.Seconds, &Trace, Reference, nullptr);
  CounterSnapshot TAfter = snapshotCounters();
  const uint64_t Spans = Trace.spanCount();
  std::vector<double> Ms[2];
  for (int Leg = 0; Leg != 2; ++Leg)
    for (double S : Trace.durations("faults.sweep.replicate", Leg))
      Ms[Leg].push_back(S * 1e3);
  telemetry::ProfileReport Profile = Trace.finish();

  R.check(T.CampaignErrors == 0 && T.ReportsDiffering == 0,
          "traced campaigns reproduce the untraced reports");
  R.percentile("faults.replicate_ms_p50", nearestRank(Ms[0], 0.50), "ms",
               false);
  R.percentile("faults.replicate_ms_p90", nearestRank(Ms[0], 0.90), "ms",
               false);
  R.percentile("faults.replicate_ms_p50_1t", nearestRank(Ms[1], 0.50), "ms",
               false);
  emitCounterMetrics(R, TBefore, TAfter);
  const double Runs =
      static_cast<double>(counterDelta(TBefore, TAfter, "faults.scenario.runs"));
  R.metric("faults.useful_run_frac", Runs > 0 ? T.Replicates / Runs : 0.0,
           "fraction", "replicates / scenario runs (runSweep probes replicate 0)");
  const double Steps =
      static_cast<double>(counterDelta(TBefore, TAfter, "sim.transient.steps") +
                          counterDelta(TBefore, TAfter, "sim.rack_transient.steps"));
  R.metric("sim.step_us",
           Steps > 0 ? layerSelfSeconds(Profile)["sim"] / Steps * 1e6 : 0.0,
           "us", "sim self time / steps");
  emitTraceMetrics(R, Profile, Spans, T.Replicates, P.Replicates / P.WallS,
                   T.Replicates / T.WallS);
}
