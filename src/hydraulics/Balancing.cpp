//===- hydraulics/Balancing.cpp - Valve trim balancing ------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hydraulics/Balancing.h"

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace rcs;
using namespace rcs::hydraulics;

Expected<TrimResult>
rcs::hydraulics::trimBalancingValves(RackHydraulics &Rack,
                                     const fluids::Fluid &F, double TempC,
                                     TrimOptions Options) {
  assert(!Rack.LoopEdges.empty() && "rack has no loops to balance");
  telemetry::Registry &Telemetry = telemetry::Registry::global();
  static telemetry::Counter &RunCount =
      Telemetry.counter("hydraulics.balancing.runs");
  static telemetry::Counter &TrimIterations =
      Telemetry.counter("hydraulics.balancing.iterations");
  static telemetry::Timer &TrimTimer =
      Telemetry.timer("hydraulics.balancing.trim");
  telemetry::ScopedTimer Timer(TrimTimer);
  RunCount.add();

  TrimResult Result;
  const size_t NumLoops = Rack.LoopEdges.size();
  Result.ValveOpenings.assign(NumLoops, 1.0);

  // Each trim iteration re-solves a slightly throttled network, so the
  // previous junction pressures are an excellent Newton starting point.
  FlowSolveOptions SolveOptions;
  auto solveLoops = [&]() -> Expected<std::vector<double>> {
    Expected<FlowSolution> Solution =
        Rack.Network.solve(F, TempC, 1e-3, SolveOptions);
    if (!Solution)
      return Expected<std::vector<double>>(Solution.status());
    SolveOptions.WarmStartPressuresPa = Solution->JunctionPressuresPa;
    std::vector<double> Flows;
    Flows.reserve(NumLoops);
    for (EdgeId E : Rack.LoopEdges)
      Flows.push_back(Solution->EdgeFlowsM3PerS[E]);
    return Flows;
  };

  Expected<std::vector<double>> Flows = solveLoops();
  if (!Flows)
    return Expected<TrimResult>(Flows.status());
  Result.MeanFlowBeforeM3PerS = computeFlowBalance(*Flows).MeanFlowM3PerS;

  for (int Iter = 0; Iter != Options.MaxIterations; ++Iter) {
    FlowBalanceStats Stats = computeFlowBalance(*Flows);
    Result.FinalImbalanceFraction = Stats.ImbalanceFraction;
    Result.Iterations = Iter;
    if (Telemetry.tracingEnabled())
      Telemetry.emitEvent("hydraulics.balancing.iteration",
                          {{"iteration", Iter},
                           {"imbalance_fraction", Stats.ImbalanceFraction},
                           {"min_flow_m3s", Stats.MinFlowM3PerS},
                           {"mean_flow_m3s", Stats.MeanFlowM3PerS}});
    if (Stats.ImbalanceFraction <= Options.TargetImbalanceFraction) {
      Result.Converged = true;
      break;
    }
    TrimIterations.add();

    // Proportional trim: throttle every loop toward the minimum flow.
    double MinFlow = Stats.MinFlowM3PerS;
    for (size_t I = 0; I != NumLoops; ++I) {
      double Q = (*Flows)[I];
      if (Q <= 0.0)
        continue;
      double Scale = std::pow(MinFlow / Q, Options.Relaxation);
      Result.ValveOpenings[I] = std::clamp(
          Result.ValveOpenings[I] * Scale, Options.MinOpeningFraction, 1.0);
      auto *Valve = static_cast<BalancingValve *>(Rack.Network.elementAt(
          Rack.LoopEdges[I], Rack.LoopValveElementIndex));
      Valve->setOpening(Result.ValveOpenings[I]);
    }

    Flows = solveLoops();
    if (!Flows)
      return Expected<TrimResult>(Flows.status());
  }

  FlowBalanceStats Final = computeFlowBalance(*Flows);
  Result.FinalImbalanceFraction = Final.ImbalanceFraction;
  Result.MeanFlowAfterM3PerS = Final.MeanFlowM3PerS;
  Result.Converged =
      Result.Converged || Final.ImbalanceFraction <= Options.TargetImbalanceFraction;
  return Result;
}
