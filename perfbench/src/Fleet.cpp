//===- perfbench/src/Fleet.cpp - Datacenter-row thermal workload ----------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A row of several hundred racks from thermal::buildFleetNetwork, thousands
// of unknowns above the sparse threshold, stepped through a long transient:
// every step changes chip heat sources (an RHS-only edit that reuses the
// factor), periodic CDU conductance trims force numeric refactors, and
// periodic steady solves run beside. The only workload on the sparse
// CSR/RCM/LDL^T path; it mixes factor reuse with refactoring, so a gain for
// one that costs the other shows.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"

#include "thermal/Fleet.h"

#include <cmath>
#include <optional>

using namespace rcs;
using namespace perfbench;

bool perfbench::fleetSteadyCloses(const thermal::FleetNetwork &F,
                                  const std::vector<double> &Steady,
                                  double &Residual, double &Pickup) {
  const double Power = F.Net.totalSourcePowerW();
  Residual = F.Net.steadyStateResidualW(Steady) / Power;
  Pickup =
      std::fabs(F.Net.boundaryHeatFlowW(F.Facility, Steady) - Power) / Power;
  return Residual <= FleetSteadyTolerance && Pickup <= FleetSteadyTolerance;
}

namespace {

struct FleetState {
  thermal::FleetConfig Config;
  thermal::FleetNetwork Fleet;
  std::vector<double> Temps;
  double BuildS = 0.0;
};

struct Pass {
  /// Host time of each trim cycle: FleetTrimEvery steps, one of them the
  /// refactor after a CDU trim, and on every fourth cycle a steady solve.
  /// A single RHS-only step is so short that its time flips between two
  /// cache regimes from run to run; a cycle averages over them.
  std::vector<double> CycleMs;
  double OpenCycleMs = 0.0;
  std::vector<double> StepMs;
  std::vector<double> RefactorStepMs;
  std::vector<double> SteadyMs;
  /// Host time inside the program's calls (edits, step, steady solve).
  double BusyS = 0.0;
  uint64_t Steps = 0;
  uint64_t StepFailures = 0;
  uint64_t SteadyChecks = 0;
  uint64_t SteadyFailures = 0;
  double WorstResidualFraction = 0.0;
  double WorstPickupFraction = 0.0;
};

/// Trim cycles per steady solve: the fleet's repeating mix.
constexpr size_t CyclesPerSteady = FleetSteadyEvery / FleetTrimEvery;

/// Checks a steady solution outside the clock.
void checkSteady(const thermal::FleetNetwork &F,
                 const Expected<std::vector<double>> &Steady, Pass &P) {
  ++P.SteadyChecks;
  if (!Steady) {
    ++P.SteadyFailures;
    return;
  }
  double Residual = 0.0, Pickup = 0.0;
  if (!fleetSteadyCloses(F, *Steady, Residual, Pickup))
    ++P.SteadyFailures;
  P.WorstResidualFraction = std::max(P.WorstResidualFraction, Residual);
  P.WorstPickupFraction = std::max(P.WorstPickupFraction, Pickup);
}

Pass measure(FleetState &S, uint64_t Seed, uint64_t &Step, double Seconds,
             bool Trace, SetupTimer *Setups) {
  Pass P;
  // Room for a run's samples up front: sample vectors that grow while set-ups
  // rebuild the fleet would interleave their reallocations with the fleet's
  // at times that differ from run to run, and move the peak resident set.
  P.StepMs.reserve(size_t(1) << 18);
  P.CycleMs.reserve(size_t(1) << 14);
  P.RefactorStepMs.reserve(size_t(1) << 14);
  P.SteadyMs.reserve(size_t(1) << 12);
  thermal::FleetNetwork &F = S.Fleet;
  const size_t Modules = S.Config.ModulesPerRack;
  const double ModulePowerW = S.Config.ModulePower.value();
  const double CduWPerK = S.Config.LoopToFacility.value();
  Clock::time_point Start = Clock::now();
  while (P.CycleMs.size() < minSamples(CyclesPerSteady) ||
         secondsBetween(Start, Clock::now()) < Seconds) {
    FleetEdit E = fleetEdit(Seed, Step++);
    Clock::time_point T0, T1, T2;
    Status Stepped = Status::ok();
    std::optional<Expected<std::vector<double>>> Steady;
    {
      BenchSpan Span(Trace, "bench.thermal.fleet_step");
      T0 = Clock::now();
      for (const auto &[Rack, Util] : E.Utilization)
        for (size_t M = 0; M != Modules; ++M)
          F.Net.setHeatSource(F.Chips[Rack * Modules + M],
                              ModulePowerW * Util);
      if (E.TrimRack >= 0)
        F.Net.setConductance(F.RackLoops[static_cast<size_t>(E.TrimRack)],
                             F.Facility, CduWPerK * E.TrimFactor);
      Stepped = F.Net.stepTransient(S.Temps, FleetDtS);
      T1 = Clock::now();
      if (E.Steady)
        Steady = F.Net.solveSteadyState();
      T2 = Clock::now();
    }

    ++P.Steps;
    P.StepFailures += !Stepped;
    P.OpenCycleMs += secondsBetween(T0, T2) * 1e3;
    P.BusyS += secondsBetween(T0, T2);
    (E.TrimRack >= 0 ? P.RefactorStepMs : P.StepMs)
        .push_back(secondsBetween(T0, T1) * 1e3);
    if (Steady) {
      P.SteadyMs.push_back(secondsBetween(T1, T2) * 1e3);
      checkSteady(F, *Steady, P);
    }
    if (P.Steps % FleetTrimEvery == 0) {
      P.CycleMs.push_back(P.OpenCycleMs);
      P.OpenCycleMs = 0.0;
      // A set-up rebuilds the fleet between cycles; edits are absolute, so
      // the steps after it do the same work.
      if (Setups)
        Setups->between();
    }
  }
  return P;
}

} // namespace

void perfbench::runFleetWorkload(const Options &Opts, Result &R) {
  FleetState S;
  bool SetUpOk = true;
  SetupTimer Setups([&] {
    S = FleetState();
    S.Config = fleetConfig();
    Clock::time_point Start = Clock::now();
    S.Fleet = thermal::buildFleetNetwork(S.Config);
    S.BuildS = secondsBetween(Start, Clock::now());
    // Warm-up: the steady state is the initial condition, and one step
    // builds the transient factor.
    Expected<std::vector<double>> Initial = S.Fleet.Net.solveSteadyState();
    SetUpOk = static_cast<bool>(Initial);
    if (!SetUpOk)
      return;
    S.Temps = std::move(*Initial);
    SetUpOk = static_cast<bool>(S.Fleet.Net.stepTransient(S.Temps, FleetDtS));
  }, Opts.Seconds);
  for (size_t I = 0; I != SetupTimer::Before && SetUpOk; ++I)
    Setups.once();
  R.check(SetUpOk, "fleet network solves and steps");
  if (!SetUpOk)
    return;
  const double Unknowns = static_cast<double>(thermal::fleetUnknowns(S.Config));
  R.context("fleet", std::to_string(FleetRacks) + " racks x " +
                         std::to_string(FleetModulesPerRack) + " modules");
  R.context("unknowns", Unknowns);
  R.context("edits", "utilization of " + std::to_string(FleetRacksPerStep) +
                         " racks every step, CDU trim every " +
                         std::to_string(FleetTrimEvery) +
                         ", steady solve every " +
                         std::to_string(FleetSteadyEvery));

  uint64_t Step = 0;
  CounterSnapshot Before = snapshotCounters();
  Pass P = measure(S, Opts.Seed, Step, Opts.Seconds, false, &Setups);
  CounterSnapshot After = snapshotCounters();
  Setups.report(R);
  R.check(SetUpOk, "set-ups during the run solve and step");

  R.context("steps", static_cast<double>(P.Steps));
  R.tally(P.Steps, P.StepFailures, "transient steps");
  R.tally(P.SteadyChecks, P.SteadyFailures,
          "steady solves close within 1e-6 of source power");
  R.context("worst_steady_residual_frac", P.WorstResidualFraction);
  R.context("worst_facility_pickup_frac", P.WorstPickupFraction);
  R.check(counterDelta(Before, After, "hydraulics.flow.solves") == 0,
          "fleet makes no hydraulic solve");
  R.check(counterDelta(Before, After, "thermal.network.sparse_solves") >=
              P.Steps,
          "fleet runs on the sparse path");

  R.metric("ops_per_s",
           windowedRate(P.CycleMs, CyclesPerSteady) * FleetTrimEvery, "1/s",
           "transient steps per host second inside the program, median of "
           "10 windows");
  emitOpPercentiles(R, P.CycleMs, CyclesPerSteady);
  R.metric("thermal.unknowns", Unknowns, "count");
  R.metric("thermal.build_s", S.BuildS, "s");
  R.percentile("thermal.step_ms_p50", nearestRank(P.StepMs, 0.50), "ms", false);
  R.percentile("thermal.refactor_step_ms_p50",
               nearestRank(P.RefactorStepMs, 0.50), "ms", false);
  R.percentile("thermal.steady_ms_p50", nearestRank(P.SteadyMs, 0.50), "ms",
               false);
  R.metric("thermal.factor_bytes",
           static_cast<double>(S.Fleet.Net.solverMemoryBytes()), "bytes");
  if (!Opts.Trace)
    return;

  TraceSession Trace({});
  CounterSnapshot TBefore = snapshotCounters();
  Pass T = measure(S, Opts.Seed, Step, Opts.Seconds, true, nullptr);
  CounterSnapshot TAfter = snapshotCounters();
  const uint64_t Spans = Trace.spanCount();
  telemetry::ProfileReport Profile = Trace.finish();
  R.tally(T.Steps + T.SteadyChecks, T.StepFailures + T.SteadyFailures,
          "traced steps and steady solves");
  emitCounterMetrics(R, TBefore, TAfter);
  emitTraceMetrics(R, Profile, Spans, static_cast<double>(T.Steps),
                   P.Steps / P.BusyS, T.Steps / T.BusyS);
}
