//===- perfbench/src/Design.cpp - Steady design-study workload ------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Seeded steady evaluations: rack solves (the primary-loop Newton plus a
// coupled fixed point per module), valve trims on direct- and
// reverse-return manifolds, internal-loop flow solves, module solves and
// tolerance samples. The only workload that runs the hydraulic Newton and
// its per-edge inversions, and the module fixed point without the
// transient machinery.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"

#include "audit/Audit.h"
#include "core/Designs.h"
#include "core/Uncertainty.h"
#include "fluids/Fluid.h"
#include "hydraulics/Balancing.h"
#include "hydraulics/InternalLoop.h"
#include "system/Module.h"
#include "system/Rack.h"

#include <cmath>
#include <memory>

using namespace rcs;
using namespace perfbench;

namespace {

/// Trimmed manifolds kept for the audit after the timed pass.
constexpr size_t AuditedTrims = 16;

struct DesignState {
  std::vector<DesignPoint> Points;
  std::unique_ptr<rcsystem::Rack> Racks[2];
  rcsystem::ModuleConfig Modules[2];
  std::unique_ptr<fluids::Fluid> Water;
  std::unique_ptr<fluids::Fluid> Oil;
  hydraulics::InternalLoop Loops[2];
  rcsystem::ExternalConditions Nominal;
};

struct TrimmedManifold {
  hydraulics::RackHydraulics Rack;
  double TempC = 0.0;
};

struct Pass {
  std::vector<double> OpMs;
  std::vector<double> KindMs[6];
  double BusyS = 0.0;
  uint64_t Evaluations = 0;
  uint64_t Failures = 0;
  std::vector<TrimmedManifold> Trimmed;
};

hydraulics::RackHydraulicsConfig manifold(const DesignPoint &P) {
  hydraulics::RackHydraulicsConfig Config;
  Config.Layout = P.Kind == DesignKind::TrimDirect
                      ? hydraulics::ManifoldLayout::DirectReturn
                      : hydraulics::ManifoldLayout::ReverseReturn;
  Config.ManifoldSegmentLengthM = P.A;
  Config.ManifoldDiameterM = P.B;
  return Config;
}

/// One evaluation; false when the program reports failure.
bool evaluate(DesignState &S, const DesignPoint &P, bool Trace,
              std::vector<TrimmedManifold> *Keep) {
  switch (P.Kind) {
  case DesignKind::RackSolve: {
    BenchSpan Span(Trace, "bench.system.rack_solve");
    std::optional<int> Isolated;
    if (P.Extra >= 0)
      Isolated = static_cast<int>(P.Extra);
    return static_cast<bool>(
        S.Racks[P.Variant]->solveSteadyState(P.TempC, Isolated));
  }
  case DesignKind::TrimDirect:
  case DesignKind::TrimReverse: {
    BenchSpan Span(Trace, "bench.hydraulics.trim");
    hydraulics::RackHydraulics Rack =
        hydraulics::buildRackPrimaryLoop(manifold(P));
    Expected<hydraulics::TrimResult> Trim =
        hydraulics::trimBalancingValves(Rack, *S.Water, P.TempC);
    const bool Ok = Trim && Trim->Converged;
    if (Ok && Keep && Keep->size() < AuditedTrims)
      Keep->push_back({std::move(Rack), P.TempC});
    return Ok;
  }
  case DesignKind::InternalLoop: {
    BenchSpan Span(Trace, "bench.hydraulics.internal_loop");
    return static_cast<bool>(
        hydraulics::solveInternalLoop(S.Loops[P.Variant], *S.Oil, P.TempC));
  }
  case DesignKind::ModuleSolve: {
    BenchSpan Span(Trace, "bench.system.module_solve");
    rcsystem::ExternalConditions Conditions = S.Nominal;
    Conditions.WaterInletTempC = P.TempC;
    fpga::WorkloadPoint Load = S.Modules[P.Variant].Load;
    Load.Utilization = P.A;
    rcsystem::ComputationalModule Module(S.Modules[P.Variant]);
    return static_cast<bool>(Module.solveSteadyState(Conditions, Load));
  }
  case DesignKind::Tolerances: {
    BenchSpan Span(Trace, "bench.core.tolerances");
    core::UncertaintyResult U = core::analyzeModuleTolerances(
        S.Modules[0], S.Nominal, core::ToleranceSpec(),
        DesignToleranceSamples, static_cast<uint64_t>(P.Extra));
    return U.NumFailedSolves == 0 && U.NumSamples == DesignToleranceSamples;
  }
  }
  return false;
}

Pass measure(DesignState &S, size_t &Next, double Seconds, bool Trace,
             SetupTimer *Setups) {
  Pass P;
  Clock::time_point Start = Clock::now();
  while (P.Evaluations < minSamples(DesignPoints) ||
         secondsBetween(Start, Clock::now()) < Seconds) {
    const DesignPoint &Point = S.Points[Next++ % S.Points.size()];
    Clock::time_point T0 = Clock::now();
    const bool Ok = evaluate(S, Point, Trace, &P.Trimmed);
    const double Ms = secondsBetween(T0, Clock::now()) * 1e3;
    ++P.Evaluations;
    P.Failures += !Ok;
    P.OpMs.push_back(Ms);
    P.KindMs[static_cast<int>(Point.Kind)].push_back(Ms);
    P.BusyS += Ms / 1e3;
    if (Setups)
      Setups->between();
  }
  return P;
}

/// |Value - Recorded| within \p RelTol of the EXPERIMENTS.md figure.
bool near(double Value, double Recorded, double RelTol) {
  return std::fabs(Value - Recorded) <= RelTol * std::fabs(Recorded);
}

/// Audits the kept trims and two internal-loop solves for continuity and
/// pressure closure, and checks the E7 and E9 anchor points. Runs after the
/// timed pass, outside the clock and the counted window.
void checkOutputs(DesignState &S, Pass &P, Result &R) {
  audit::DriftBudgets Budgets;
  audit::PhysicsAuditor Auditor(Budgets);
  bool Solved = true;
  for (TrimmedManifold &T : P.Trimmed) {
    auto Sol = T.Rack.Network.solve(*S.Water, T.TempC, 1e-3);
    Solved = Solved && Sol;
    if (Sol)
      Auditor.recordFlowSolution(T.Rack.Network, *Sol, *S.Water, T.TempC,
                                 1e-3);
  }
  for (hydraulics::InternalLoop &Loop : S.Loops) {
    auto Sol = Loop.Network.solve(*S.Oil, 30.0, 1e-3);
    Solved = Solved && Sol;
    if (Sol)
      Auditor.recordFlowSolution(Loop.Network, *Sol, *S.Oil, 30.0, 1e-3);
  }
  const audit::AuditSummary &Sum = Auditor.summary();
  R.check(Solved && Sum.FlowSolves == P.Trimmed.size() + 2 &&
              Sum.withinBudgets(Budgets),
          "audited flow solutions close continuity and pressure within "
          "budget (" + std::to_string(Sum.FlowSolves) + " solves)");
  R.context("audit_continuity_max_frac", Sum.Continuity.MaxFraction);
  R.context("audit_pressure_max_frac", Sum.PressureClosure.MaxFraction);

  // E7 (EXPERIMENTS.md): six-loop reverse return self-balances at 0.68%,
  // direct return sits at 2.2%.
  double Imbalance[2] = {-1.0, -1.0};
  for (int Direct = 0; Direct != 2; ++Direct) {
    hydraulics::RackHydraulicsConfig Config;
    Config.Layout = Direct ? hydraulics::ManifoldLayout::DirectReturn
                           : hydraulics::ManifoldLayout::ReverseReturn;
    hydraulics::RackHydraulics Rack = hydraulics::buildRackPrimaryLoop(Config);
    auto Sol = Rack.Network.solve(*S.Water, 18.0, 1e-3);
    if (!Sol)
      continue;
    std::vector<double> Flows;
    for (hydraulics::EdgeId E : Rack.LoopEdges)
      Flows.push_back(Sol->EdgeFlowsM3PerS[E]);
    Imbalance[Direct] = hydraulics::computeFlowBalance(Flows).ImbalanceFraction;
  }
  R.context("e7_imbalance", "reverse " + std::to_string(Imbalance[0] * 100) +
                                "%, direct " +
                                std::to_string(Imbalance[1] * 100) + "%");
  R.check(Imbalance[0] >= 0 && Imbalance[0] < 0.05 &&
              Imbalance[1] > 2.0 * Imbalance[0] &&
              near(Imbalance[0], 0.0068, 0.1) && near(Imbalance[1], 0.022, 0.1),
          "E7 anchor inside its band");

  // E9: the SKAT rack at 25 C delivers > 1 PFlops within the envelope.
  rcsystem::Rack Skat(core::makeSkatRack());
  auto Rack = Skat.solveSteadyState(25.0);
  R.context("e9_rack", Rack ? "Tj " + std::to_string(Rack->MaxJunctionTempC) +
                                  " C, PUE " + std::to_string(Rack->Pue)
                            : Rack.message());
  R.check(Rack && Skat.peakPflops() > 1.0 && Rack->MaxJunctionTempC <= 55.0 &&
              Rack->Pue < 1.35 && Rack->Balance.ImbalanceFraction < 0.05 &&
              near(Skat.peakPflops(), 1.002, 0.01) &&
              std::fabs(Rack->MaxJunctionTempC - 43.0) <= 0.5 &&
              near(Rack->Pue, 1.239, 0.01),
          "E9 anchor inside its band");
}

} // namespace

void perfbench::runDesignWorkload(const Options &Opts, Result &R) {
  DesignState S;
  bool SetUpOk = true;
  SetupTimer Setups([&] {
    S = DesignState();
    S.Points = designPoints(Opts.Seed);
    S.Racks[0] = std::make_unique<rcsystem::Rack>(core::makeSkatRack());
    S.Racks[1] = std::make_unique<rcsystem::Rack>(core::makeSkatPlusRack());
    S.Modules[0] = core::makeSkatModule();
    S.Modules[1] = core::makeSkatPlusModule();
    S.Water = fluids::makeWater();
    S.Oil = fluids::makeEngineeredDielectric();
    hydraulics::InternalLoopConfig Tapered, Narrow;
    Narrow.Design = hydraulics::PlenumDesign::UniformNarrow;
    S.Loops[0] = hydraulics::buildInternalLoop(Tapered);
    S.Loops[1] = hydraulics::buildInternalLoop(Narrow);
    S.Nominal = core::makeNominalConditions();
    // Warm-up: one evaluation of each kind.
    for (int I = 0; I != 8 && SetUpOk; ++I)
      SetUpOk = evaluate(S, S.Points[static_cast<size_t>(I)], false, nullptr);
  }, Opts.Seconds);
  for (size_t I = 0; I != SetupTimer::Before && SetUpOk; ++I)
    Setups.once();
  R.check(SetUpOk, "design set-up evaluations succeed");
  if (!SetUpOk)
    return;
  R.context("points", std::to_string(DesignPoints) +
                          " per cycle: rack solve, 2 trims, 2 internal loops, "
                          "2 module solves, 1 tolerance run (" +
                          std::to_string(DesignToleranceSamples) + " samples)");

  size_t Next = 0;
  CounterSnapshot Before = snapshotCounters();
  Pass P = measure(S, Next, Opts.Seconds, false, &Setups);
  CounterSnapshot After = snapshotCounters();
  Setups.report(R);
  R.check(SetUpOk, "set-ups during the run succeed");
  R.context("evaluations", static_cast<double>(P.Evaluations));
  R.tally(P.Evaluations, P.Failures, "evaluations converge");
  R.check(counterDelta(Before, After, "hydraulics.flow.failures") == 0,
          "every hydraulic Newton solve converges");
  checkOutputs(S, P, R);

  R.metric("ops_per_s", windowedRate(P.OpMs, DesignPoints), "1/s",
           "evaluations per host second inside the program, median of 10 "
           "windows");
  emitOpPercentiles(R, P.OpMs, DesignPoints);
  auto Kind = [&](DesignKind K) { return P.KindMs[static_cast<int>(K)]; };
  R.percentile("system.rack_solve_ms_p50",
               nearestRank(Kind(DesignKind::RackSolve), 0.5), "ms", false);
  R.percentile("system.module_solve_ms_p50",
               nearestRank(Kind(DesignKind::ModuleSolve), 0.5), "ms", false);
  R.percentile("hydraulics.flow_solve_ms_p50",
               nearestRank(Kind(DesignKind::InternalLoop), 0.5), "ms", false);
  std::vector<double> Trims = Kind(DesignKind::TrimDirect);
  for (double Ms : Kind(DesignKind::TrimReverse))
    Trims.push_back(Ms);
  R.percentile("hydraulics.trim_ms_p50", nearestRank(Trims, 0.5), "ms", false);
  R.percentile("core.tolerance_ms_p50",
               nearestRank(Kind(DesignKind::Tolerances), 0.5), "ms", false);
  if (!Opts.Trace)
    return;

  TraceSession Trace({});
  CounterSnapshot TBefore = snapshotCounters();
  Pass T = measure(S, Next, Opts.Seconds, true, nullptr);
  CounterSnapshot TAfter = snapshotCounters();
  const uint64_t Spans = Trace.spanCount();
  telemetry::ProfileReport Profile = Trace.finish();
  R.tally(T.Evaluations, T.Failures, "traced evaluations converge");
  emitCounterMetrics(R, TBefore, TAfter);
  emitTraceMetrics(R, Profile, Spans, static_cast<double>(T.Evaluations),
                   P.Evaluations / P.BusyS, T.Evaluations / T.BusyS);
}
