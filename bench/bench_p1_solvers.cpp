//===- bench/bench_p1_solvers.cpp - Solver micro-benchmarks ------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark micro-benchmarks of the numerical kernels: thermal
/// network steady-state and transient solves, hydraulic network Newton
/// solves, the full coupled module solve and a rack solve. Also serves as
/// the ablation harness for the span-tracing and physics-audit hot-path
/// overheads and reliability-sweep thread scaling.
///
//===----------------------------------------------------------------------===//

#include "audit/Audit.h"
#include "core/Designs.h"
#include "faults/Sweep.h"
#include "fluids/Fluid.h"
#include "hydraulics/Manifold.h"
#include "sim/Transient.h"
#include "support/Numerics.h"
#include "support/Parallel.h"
#include "telemetry/Bench.h"
#include "telemetry/Telemetry.h"
#include "thermal/Network.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace rcs;

/// Builds a ladder thermal network with \p Rungs chip->sink->coolant
/// chains hanging off a shared coolant rail.
static thermal::ThermalNetwork makeLadderNetwork(int Rungs) {
  thermal::ThermalNetwork Net;
  thermal::NodeId Coolant = Net.addBoundaryNode("coolant", 30.0);
  for (int I = 0; I != Rungs; ++I) {
    thermal::NodeId Chip = Net.addNode("chip", 100.0);
    thermal::NodeId Sink = Net.addNode("sink", 300.0);
    Net.addResistance(Chip, Sink, 0.12);
    Net.addResistance(Sink, Coolant, 0.15);
    Net.addHeatSource(Chip, 91.0);
    if (I > 0)
      Net.addConductance(Chip, Chip - 2, 0.5); // Board coupling.
  }
  return Net;
}

/// The seed transient step, frozen as the reference leg of
/// speedup_transient_factor_reuse: assemble C/dt + L and the right-hand
/// side of makeLadderNetwork(\p Rungs) in the network's order, then
/// eliminate with rcs::solveDense, every step. Same bits as the network
/// (the report fails otherwise). Unknown 2I is rung I's chip, 2I+1 its sink.
static Status seedLadderStep(int Rungs, std::vector<double> &Temps,
                             double DtS) {
  const size_t N = 2 * static_cast<size_t>(Rungs);
  Matrix A(N, N);
  std::vector<double> B(N, 0.0);
  for (size_t U = 0; U != N; ++U) {
    double CoverDt = (U % 2 != 0 ? 300.0 : 100.0) / DtS;
    A.at(U, U) += CoverDt;
    B[U] += CoverDt * Temps[U + 1] + (U % 2 != 0 ? 0.0 : 91.0);
  }
  auto Couple = [&](size_t P, size_t Q, double G) {
    A.at(P, P) += G;
    A.at(P, Q) -= G;
    A.at(Q, Q) += G;
    A.at(Q, P) -= G;
  };
  for (size_t Chip = 0; Chip != N; Chip += 2) {
    Couple(Chip, Chip + 1, 1.0 / 0.12);
    A.at(Chip + 1, Chip + 1) += 1.0 / 0.15; // Sink to the 30 C coolant.
    B[Chip + 1] += 1.0 / 0.15 * 30.0;
    if (Chip > 0)
      Couple(Chip, Chip - 2, 0.5);
  }
  Expected<std::vector<double>> Next = solveDense(std::move(A), std::move(B));
  if (!Next)
    return Next.status();
  Temps[0] = 30.0;
  for (size_t U = 0; U != N; ++U)
    Temps[U + 1] = (*Next)[U];
  return Status::ok();
}

static void BM_ThermalSteadyState(benchmark::State &State) {
  thermal::ThermalNetwork Net =
      makeLadderNetwork(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    auto Temps = Net.solveSteadyState();
    benchmark::DoNotOptimize(Temps);
  }
}
BENCHMARK(BM_ThermalSteadyState)->Arg(8)->Arg(32)->Arg(96)->Arg(192);

static void BM_ThermalTransientStep(benchmark::State &State) {
  thermal::ThermalNetwork Net =
      makeLadderNetwork(static_cast<int>(State.range(0)));
  std::vector<double> Temps(Net.numNodes(), 30.0);
  for (auto _ : State) {
    Status S = Net.stepTransient(Temps, 1.0);
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_ThermalTransientStep)->Arg(8)->Arg(96);

static hydraulics::RackHydraulics makeBenchRack(int NumLoops) {
  hydraulics::RackHydraulicsConfig Config;
  Config.NumLoops = NumLoops;
  Config.Layout = hydraulics::ManifoldLayout::ReverseReturn;
  return hydraulics::buildRackPrimaryLoop(Config);
}

static void BM_HydraulicRackSolve(benchmark::State &State) {
  hydraulics::RackHydraulics Rack =
      makeBenchRack(static_cast<int>(State.range(0)));
  auto Water = fluids::makeWater();
  for (auto _ : State) {
    auto Solution = Rack.Network.solve(*Water, 18.0, 1e-3);
    benchmark::DoNotOptimize(Solution);
  }
}
BENCHMARK(BM_HydraulicRackSolve)->Arg(6)->Arg(12)->Arg(24);

// Ablation: the seed Newton path — finite-difference Jacobian, cold
// start from zero pressures every solve.
static void BM_HydraulicRackSolveFdCold(benchmark::State &State) {
  hydraulics::RackHydraulics Rack =
      makeBenchRack(static_cast<int>(State.range(0)));
  auto Water = fluids::makeWater();
  hydraulics::FlowSolveOptions Options;
  Options.Jacobian = hydraulics::FlowSolveOptions::JacobianKind::FiniteDifference;
  for (auto _ : State) {
    auto Solution = Rack.Network.solve(*Water, 18.0, 1e-3, Options);
    benchmark::DoNotOptimize(Solution);
  }
}
BENCHMARK(BM_HydraulicRackSolveFdCold)->Arg(6)->Arg(12)->Arg(24);

// Repeated-solve leg: analytic Jacobian plus warm start from the prior
// solution, the pattern of the balancing trim loop.
static void BM_HydraulicRackSolveWarm(benchmark::State &State) {
  hydraulics::RackHydraulics Rack =
      makeBenchRack(static_cast<int>(State.range(0)));
  auto Water = fluids::makeWater();
  hydraulics::FlowSolveOptions Options;
  for (auto _ : State) {
    auto Solution = Rack.Network.solve(*Water, 18.0, 1e-3, Options);
    benchmark::DoNotOptimize(Solution);
    if (Solution)
      Options.WarmStartPressuresPa = Solution->JunctionPressuresPa;
  }
}
BENCHMARK(BM_HydraulicRackSolveWarm)->Arg(6)->Arg(12)->Arg(24);

static void BM_ImmersionModuleSolve(benchmark::State &State) {
  rcsystem::ComputationalModule Module(core::makeSkatModule());
  auto Conditions = core::makeNominalConditions();
  for (auto _ : State) {
    auto Report = Module.solveSteadyState(Conditions);
    benchmark::DoNotOptimize(Report);
  }
}
BENCHMARK(BM_ImmersionModuleSolve);

static void BM_AirModuleSolve(benchmark::State &State) {
  rcsystem::ComputationalModule Module(core::makeTaygetaModule());
  auto Conditions = core::makeNominalConditions();
  for (auto _ : State) {
    auto Report = Module.solveSteadyState(Conditions);
    benchmark::DoNotOptimize(Report);
  }
}
BENCHMARK(BM_AirModuleSolve);

static void BM_FullRackSolve(benchmark::State &State) {
  rcsystem::Rack Rack(core::makeSkatRack());
  for (auto _ : State) {
    auto Report = Rack.solveSteadyState(25.0);
    benchmark::DoNotOptimize(Report);
  }
}
BENCHMARK(BM_FullRackSolve);

static void BM_TransientSimMinute(benchmark::State &State) {
  for (auto _ : State) {
    sim::TransientSimulator Simulator(core::makeSkatModule(),
                                      core::makeNominalConditions());
    auto Trace = Simulator.run(60.0);
    benchmark::DoNotOptimize(Trace);
  }
}
BENCHMARK(BM_TransientSimMinute);

//===----------------------------------------------------------------------===//
// Ablation speedup measurements
//
// The regression gate (tools/bench_compare) checks machine-independent
// ratios, not absolute times: each leg times the fast path against the
// seed path doing identical work, best-of-3, and reports old/new.
//===----------------------------------------------------------------------===//

namespace {

/// Repetition scale from SKATSIM_BENCH_REPS (default 1.0; CI smoke runs
/// set a fraction to keep the job fast).
double benchRepScale() {
  const char *Env = std::getenv("SKATSIM_BENCH_REPS");
  if (!Env || !*Env)
    return 1.0;
  char *End = nullptr;
  double Scale = std::strtod(Env, &End);
  return End != Env && Scale > 0.0 ? Scale : 1.0;
}

/// Best-of-\p Rounds wall time of \p Body in seconds.
template <typename Fn> double bestWallTimeS(int Rounds, Fn &&Body) {
  double Best = 1e300;
  for (int Round = 0; Round != Rounds; ++Round) {
    auto Start = std::chrono::steady_clock::now();
    Body();
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    Best = std::min(Best, Elapsed.count());
  }
  return Best;
}

/// The transient ladder: 256 rungs = 512 unknowns, rack-scale, where the
/// refactor the cache avoids dominates the backsolve it must still run.
/// Pinned to the dense kernel: these legs measure factor *reuse* and
/// instrumentation cost, and letting them route through the sparse solver
/// would conflate ablations (the sparse-vs-dense ratio has its own legs
/// below).
constexpr int LadderRungs = 256;
/// Timed rounds per ladder leg; each leg keeps its best.
constexpr int LadderRounds = 3;

thermal::ThermalNetwork makeDenseLadder() {
  thermal::ThermalNetwork Net = makeLadderNetwork(LadderRungs);
  Net.setSparseThreshold(SIZE_MAX);
  return Net;
}

/// Seconds for \p Steps frozen seed steps of the ladder, best of
/// LadderRounds, after one priming step like the cached legs; \p Temps gets
/// the final state.
double timeSeedLadderS(int Steps, std::vector<double> &Temps) {
  Temps.assign(makeDenseLadder().numNodes(), 30.0);
  (void)seedLadderStep(LadderRungs, Temps, 1.0);
  return bestWallTimeS(LadderRounds, [&] {
    for (int I = 0; I != Steps; ++I)
      (void)seedLadderStep(LadderRungs, Temps, 1.0);
  });
}

/// Swallows every record: installing it times the span machinery plus
/// sink dispatch while excluding file I/O, the honest cost of `--trace`.
struct DiscardSink final : telemetry::EventSink {
  uint64_t NumSpans = 0;
  void instant(double, std::string_view, const telemetry::EventField *,
               size_t) override {}
  void span(const telemetry::SpanRecord &) override { ++NumSpans; }
  Status close() override { return Status::ok(); }
};

/// Seconds for \p Solves rack Newton solves: seed path (FD Jacobian, cold
/// start) vs overhaul path (analytic Jacobian, warm start).
double timeRackNewtonS(bool Overhaul, int Solves) {
  hydraulics::RackHydraulics Rack = makeBenchRack(12);
  auto Water = fluids::makeWater();
  hydraulics::FlowSolveOptions Run;
  if (!Overhaul)
    Run.Jacobian =
        hydraulics::FlowSolveOptions::JacobianKind::FiniteDifference;
  // Prime the warm start outside the clock: the metric is the
  // steady-state repeated-solve cost of the trim loop, and keeping the
  // one cold solve out of the window makes the ratio independent of the
  // solve count (the CI smoke run times far fewer solves).
  if (Overhaul) {
    auto Primer = Rack.Network.solve(*Water, 18.0, 1e-3, Run);
    if (Primer)
      Run.WarmStartPressuresPa = Primer->JunctionPressuresPa;
  }
  return bestWallTimeS(3, [&] {
    for (int I = 0; I != Solves; ++I) {
      auto Solution = Rack.Network.solve(*Water, 18.0, 1e-3, Run);
      benchmark::DoNotOptimize(Solution);
      if (Overhaul && Solution)
        Run.WarmStartPressuresPa = Solution->JunctionPressuresPa;
    }
  });
}

/// Best-of-LadderRounds seconds for \p Steps ladder steps on the cached
/// factor, three ways: plain; traced, with a discard sink attached for the
/// round; and audited, paying the begin-of-step state snapshot and
/// conservation residual recompute PhysicsAuditor charges the hot loop for.
/// Each leg steps its own network, built and primed before any clock
/// starts, and the legs take turns within every round: a change in host
/// speed then lands on all three alike, so the ratios read the
/// instrumentation, not the host.
struct LadderLegs {
  double CachedS = 1e300;
  double TracedS = 1e300;
  double AuditedS = 1e300;
};

LadderLegs timeLadderLegs(int Steps, std::vector<double> &CachedTemps) {
  thermal::ThermalNetwork Cached = makeDenseLadder();
  thermal::ThermalNetwork Traced = makeDenseLadder();
  thermal::ThermalNetwork Audited = makeDenseLadder();
  CachedTemps.assign(Cached.numNodes(), 30.0);
  std::vector<double> TracedTemps = CachedTemps, AuditedTemps = CachedTemps;
  (void)Cached.stepTransient(CachedTemps, 1.0);
  (void)Traced.stepTransient(TracedTemps, 1.0);
  (void)Audited.stepTransient(AuditedTemps, 1.0);
  audit::PhysicsAuditor Auditor((audit::DriftBudgets()));
  std::vector<double> Before;
  telemetry::Registry &Telemetry = telemetry::Registry::global();
  LadderLegs Best;
  auto Keep = [](double &BestS, auto &&Body) {
    BestS = std::min(BestS, bestWallTimeS(1, Body));
  };
  for (int Round = 0; Round != LadderRounds; ++Round) {
    Keep(Best.CachedS, [&] {
      for (int I = 0; I != Steps; ++I)
        (void)Cached.stepTransient(CachedTemps, 1.0);
    });
    Telemetry.setSink(std::make_unique<DiscardSink>());
    Keep(Best.TracedS, [&] {
      for (int I = 0; I != Steps; ++I)
        (void)Traced.stepTransient(TracedTemps, 1.0);
    });
    (void)Telemetry.closeSink();
    Keep(Best.AuditedS, [&] {
      for (int I = 0; I != Steps; ++I) {
        Before = AuditedTemps;
        (void)Audited.stepTransient(AuditedTemps, 1.0);
        audit::EnergyClosure Closure =
            Auditor.recordThermalStep(Audited, Before, AuditedTemps, 1.0);
        benchmark::DoNotOptimize(Closure);
      }
    });
  }
  return Best;
}

/// One steady leg of the sparse-vs-dense thermal ladder: per-solve time
/// under the fleet-tuning access pattern — a conductance trim between
/// solves forces a numeric refactorization while the pattern (and the
/// sparse symbolic analysis) never changes. The untrimmed priming solve
/// doubles as the agreement probe for the max-diff shape check.
struct SteadyLegResult {
  double PerSolveS = 0.0;
  std::vector<double> PrimeTemps;
  size_t FactorBytes = 0;
};

SteadyLegResult runSteadyLadderLeg(bool Sparse, int Unknowns, int Solves,
                                   int Rounds) {
  thermal::ThermalNetwork Net = makeLadderNetwork(Unknowns / 2);
  // Forced sparse: the 64-unknown rung sits below the default threshold.
  Net.setSparseThreshold(Sparse ? 1 : SIZE_MAX);
  SteadyLegResult Result;
  // Prime outside the clock: pattern + symbolic analysis (sparse) or the
  // first dense factor.
  if (auto Prime = Net.solveSteadyState())
    Result.PrimeTemps = *Prime;
  int TrimTick = 0;
  Result.PerSolveS = bestWallTimeS(Rounds, [&] {
    for (int I = 0; I != Solves; ++I) {
      double Trim = ++TrimTick % 2 != 0 ? 0.55 : 0.5;
      Net.setConductance(3, 1, Trim); // Rung 1's board-coupling edge.
      auto Temps = Net.solveSteadyState();
      benchmark::DoNotOptimize(Temps);
    }
  });
  Result.PerSolveS /= Solves;
  Result.FactorBytes = Net.solverMemoryBytes();
  return Result;
}

/// Per-step transient time on the \p Unknowns-unknown ladder at a fixed
/// dt: both paths reuse their cached factor, so this isolates the
/// per-step backsolve — dense O(n^2) vs sparse O(nnz(L)).
double timeLadderTransientPerStepS(bool Sparse, int Unknowns, int Steps,
                                   int Rounds) {
  thermal::ThermalNetwork Net = makeLadderNetwork(Unknowns / 2);
  Net.setSparseThreshold(Sparse ? 1 : SIZE_MAX);
  std::vector<double> Temps(Net.numNodes(), 30.0);
  (void)Net.stepTransient(Temps, 1.0); // Prime the factor outside the clock.
  return bestWallTimeS(Rounds, [&] {
           for (int I = 0; I != Steps; ++I)
             (void)Net.stepTransient(Temps, 1.0);
         }) /
         Steps;
}

/// A deterministic module-level reliability campaign for the sweep
/// scaling leg: one ramped pump degradation plus a drifting coolant
/// sensor, so every replicate exercises the full injected-plant +
/// corrupted-readings transient path.
faults::Scenario makeSweepScenario(double DurationS) {
  faults::Scenario S;
  S.Name = "bench-sweep";
  S.Design = "skat";
  S.DurationS = DurationS;
  S.Seed = 20260808;
  faults::FaultSpec Pump;
  Pump.Kind = faults::FaultKind::PumpDegradation;
  Pump.Id = "pump-wear";
  Pump.StartTimeS = DurationS * 0.25;
  Pump.SeverityFraction = 0.4;
  Pump.RampS = DurationS * 0.25;
  S.Faults.push_back(Pump);
  faults::FaultSpec Drift;
  Drift.Kind = faults::FaultKind::SensorDrift;
  Drift.Id = "coolant-drift";
  Drift.Target = 0;
  Drift.StartTimeS = DurationS * 0.5;
  Drift.SeverityFraction = 0.1;
  S.Faults.push_back(Drift);
  return S;
}

/// Seconds for one \p Replicates-replicate sweep of the bench scenario on
/// \p Threads workers (<= 0 = all hardware threads).
double timeSweepS(int Threads, int Replicates, double DurationS) {
  faults::Scenario S = makeSweepScenario(DurationS);
  faults::SweepConfig Config;
  Config.NumReplicates = Replicates;
  Config.NumThreads = Threads;
  return bestWallTimeS(3, [&] {
    auto Report = faults::runSweep(S, Config);
    benchmark::DoNotOptimize(Report);
  });
}

} // namespace

// BENCHMARK_MAIN(), plus a BENCH_p1_solvers.json summary carrying the
// run's wall time, the ablation speedup ratios the regression gate
// consumes, and the telemetry counter snapshot (Newton iterations,
// bracketing searches, thermal solves) accumulated across all benchmarks.
int main(int Argc, char **Argv) {
  telemetry::BenchReport Bench("p1_solvers");
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  size_t NumRun = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  double RepScale = benchRepScale();
  int TransientSteps = std::max(10, static_cast<int>(200 * RepScale));
  int NewtonSolves = std::max(4, static_cast<int>(40 * RepScale));
  std::vector<double> SeedTemps, CachedTemps;
  double TransientSeedS = timeSeedLadderS(TransientSteps, SeedTemps);
  LadderLegs Legs = timeLadderLegs(TransientSteps, CachedTemps);
  double TransientCachedS = Legs.CachedS;
  double NewtonSeedS = timeRackNewtonS(false, NewtonSolves);
  double NewtonOverhaulS = timeRackNewtonS(true, NewtonSolves);
  double TransientSpeedup = TransientSeedS / TransientCachedS;
  double NewtonSpeedup = NewtonSeedS / NewtonOverhaulS;
  printf("ablation: transient factor reuse %.2fx, hydraulic newton %.2fx\n",
         TransientSpeedup, NewtonSpeedup);

  telemetry::Registry &Telemetry = telemetry::Registry::global();
  // Span-tracing overhead: the cached leg against its traced twin, where
  // every solver span goes through the full SpanRecord path. The ratio
  // (no sink / sink) reads like a speedup: 1.0 = tracing is free, and
  // bench_compare gates it the same way, so a hot-path span regression
  // trips CI.
  double TransientTracedS = Legs.TracedS;
  double TracingOverhead = TransientCachedS / TransientTracedS;
  printf("ablation: span tracing overhead ratio %.2fx (no sink / discard "
         "sink)\n",
         TracingOverhead);

  // Physics-audit overhead: the cached leg against its audited twin.
  // Gated like overhead_span_tracing (1.0 = auditing is free).
  double TransientAuditedS = Legs.AuditedS;
  double AuditOverhead = TransientCachedS / TransientAuditedS;
  printf("ablation: physics audit overhead ratio %.2fx (no audit / "
         "audited)\n",
         AuditOverhead);

  // Sparse-vs-dense thermal ladder: the fleet-scale ablation. Steady legs
  // time the tuning access pattern (conductance trim -> numeric refactor
  // between solves); the transient legs time the factor-reuse hot loop at
  // a fixed dt. Dense work grows O(n^3) per refactor, so the 4096-unknown
  // dense leg runs one solve in one round — it clocks seconds of work and
  // needs no best-of averaging.
  struct LadderPoint {
    int Unknowns;
    int DenseSolves;
    int DenseRounds;
  };
  const LadderPoint Ladder[] = {{64, 8, 3}, {512, 4, 3}, {4096, 1, 1}};
  const int SparseSolves = std::max(4, static_cast<int>(16 * RepScale));
  double DenseSteadyGateS = 0.0, SparseSteadyGateS = 0.0;
  double LadderMaxDiffC = 0.0;
  bool LadderOk = true;
  size_t DenseBytesGate = 0, SparseBytesGate = 0;
  for (const LadderPoint &Point : Ladder) {
    SteadyLegResult Dense = runSteadyLadderLeg(
        false, Point.Unknowns, Point.DenseSolves, Point.DenseRounds);
    SteadyLegResult Sparse =
        runSteadyLadderLeg(true, Point.Unknowns, SparseSolves, 3);
    LadderOk = LadderOk && Dense.PerSolveS > 0.0 && Sparse.PerSolveS > 0.0 &&
               !Dense.PrimeTemps.empty() &&
               Dense.PrimeTemps.size() == Sparse.PrimeTemps.size();
    for (size_t I = 0; I != Dense.PrimeTemps.size() &&
                       I != Sparse.PrimeTemps.size();
         ++I)
      LadderMaxDiffC =
          std::max(LadderMaxDiffC,
                   std::fabs(Dense.PrimeTemps[I] - Sparse.PrimeTemps[I]));
    printf("ablation: sparse steady at %d unknowns %.2fx (dense %.3f ms, "
           "sparse %.3f ms, factors %zu vs %zu kB)\n",
           Point.Unknowns, Dense.PerSolveS / Sparse.PerSolveS,
           Dense.PerSolveS * 1e3, Sparse.PerSolveS * 1e3,
           Dense.FactorBytes / 1024, Sparse.FactorBytes / 1024);
    std::string Suffix = std::to_string(Point.Unknowns);
    Bench.addMetric("thermal_dense_steady_" + Suffix + "_s", Dense.PerSolveS);
    Bench.addMetric("thermal_sparse_steady_" + Suffix + "_s",
                    Sparse.PerSolveS);
    Bench.addMetric("thermal_dense_factor_bytes_" + Suffix,
                    static_cast<long long>(Dense.FactorBytes));
    Bench.addMetric("thermal_sparse_factor_bytes_" + Suffix,
                    static_cast<long long>(Sparse.FactorBytes));
    if (Point.Unknowns == 4096) {
      DenseSteadyGateS = Dense.PerSolveS;
      SparseSteadyGateS = Sparse.PerSolveS;
      DenseBytesGate = Dense.FactorBytes;
      SparseBytesGate = Sparse.FactorBytes;
    }
  }
  double SparseSteadySpeedup = DenseSteadyGateS / SparseSteadyGateS;

  // Transient at the gate size: per-step cost with the factor cached.
  const int DenseTransientSteps = std::max(3, static_cast<int>(20 * RepScale));
  const int SparseTransientSteps =
      std::max(16, static_cast<int>(200 * RepScale));
  double DenseStep4096S =
      timeLadderTransientPerStepS(false, 4096, DenseTransientSteps, 3);
  double SparseStep4096S =
      timeLadderTransientPerStepS(true, 4096, SparseTransientSteps, 3);
  double SparseTransientSpeedup = DenseStep4096S / SparseStep4096S;
  printf("ablation: sparse transient step at 4096 unknowns %.2fx (dense "
         "%.3f ms, sparse %.3f ms)\n",
         SparseTransientSpeedup, DenseStep4096S * 1e3, SparseStep4096S * 1e3);

  // Past the dense envelope: the 8192-unknown rung runs sparse only (a
  // dense factor would need 512 MB and minutes of refactor time).
  SteadyLegResult Sparse8k = runSteadyLadderLeg(
      true, 8192, std::max(2, static_cast<int>(8 * RepScale)), 3);
  double SparseStep8192S = timeLadderTransientPerStepS(
      true, 8192, std::max(8, static_cast<int>(100 * RepScale)), 3);
  printf("ablation: sparse-only at 8192 unknowns: steady %.3f ms, step "
         "%.3f ms, factors %zu kB\n",
         Sparse8k.PerSolveS * 1e3, SparseStep8192S * 1e3,
         Sparse8k.FactorBytes / 1024);

  // Reliability-sweep scaling: serial vs all-hardware-threads runs of the
  // same campaign. On a single-core host both legs run inline and the
  // ratio sits near 1.0; the gate compares against a baseline recorded on
  // the same class of machine, so it trips on parallel-path regressions,
  // not on core count.
  int SweepWorkers = clampThreadCount(0);
  int SweepReplicates = std::max(4, static_cast<int>(12 * RepScale));
  double SweepDurationS = std::max(300.0, 1800.0 * RepScale);
  double SweepSerialS = timeSweepS(1, SweepReplicates, SweepDurationS);
  double SweepParallelS =
      timeSweepS(SweepWorkers, SweepReplicates, SweepDurationS);
  double SweepSpeedup = SweepSerialS / SweepParallelS;
  printf("ablation: sweep parallel speedup %.2fx (%d replicates, %d "
         "workers)\n",
         SweepSpeedup, SweepReplicates, SweepWorkers);
  Bench.addMetric("benchmarks_run", static_cast<long long>(NumRun));
  Bench.addMetric("transient_ladder_seed_s", TransientSeedS);
  Bench.addMetric("transient_ladder_cached_s", TransientCachedS);
  Bench.addMetric("speedup_transient_factor_reuse", TransientSpeedup);
  Bench.addMetric("hydraulic_newton_seed_s", NewtonSeedS);
  Bench.addMetric("hydraulic_newton_overhaul_s", NewtonOverhaulS);
  Bench.addMetric("speedup_hydraulic_newton", NewtonSpeedup);
  Bench.addMetric("transient_ladder_traced_s", TransientTracedS);
  Bench.addMetric("overhead_span_tracing", TracingOverhead);
  Bench.addMetric("transient_ladder_audited_s", TransientAuditedS);
  Bench.addMetric("overhead_audit", AuditOverhead);
  Bench.addMetric("speedup_thermal_sparse_steady", SparseSteadySpeedup);
  Bench.addMetric("speedup_thermal_sparse_transient", SparseTransientSpeedup);
  Bench.addMetric("thermal_dense_transient_step_4096_s", DenseStep4096S);
  Bench.addMetric("thermal_sparse_transient_step_4096_s", SparseStep4096S);
  Bench.addMetric("thermal_sparse_steady_8192_s", Sparse8k.PerSolveS);
  Bench.addMetric("thermal_sparse_transient_step_8192_s", SparseStep8192S);
  Bench.addMetric("thermal_sparse_factor_bytes_8192",
                  static_cast<long long>(Sparse8k.FactorBytes));
  Bench.addMetric("thermal_sparse_dense_max_diff_c", LadderMaxDiffC);
  Bench.addMetric("sweep_serial_s", SweepSerialS);
  Bench.addMetric("sweep_parallel_s", SweepParallelS);
  Bench.addMetric("speedup_sweep_parallel", SweepSpeedup);
  Bench.addMetric("sweep_worker_threads", static_cast<long long>(SweepWorkers));
  Bench.addMetric("sweep_replicates", static_cast<long long>(SweepReplicates));
  Bench.addMetric(
      "newton_iterations",
      static_cast<long long>(
          Telemetry.counter("hydraulics.newton.iterations").value()));
  Bench.addMetric(
      "edge_inversion_searches",
      static_cast<long long>(
          Telemetry.counter("hydraulics.edge_inversion.searches").value()));
  Bench.addMetric(
      "thermal_steady_solves",
      static_cast<long long>(
          Telemetry.counter("thermal.network.steady_solves").value()));
  Bench.addMetric(
      "thermal_transient_steps",
      static_cast<long long>(
          Telemetry.counter("thermal.network.transient_steps").value()));
  // Shape check only: the ablation legs ran and produced nonzero times.
  // (NumRun may be zero under --benchmark_filter, e.g. the CI smoke run;
  // performance thresholds are tools/bench_compare's job, not ours.)
  // The frozen seed step and the cached network must land on the same
  // bits, or the reuse ratio compares different work.
  bool Ok = TransientSeedS > 0.0 && TransientCachedS > 0.0 &&
            SeedTemps == CachedTemps &&
            NewtonSeedS > 0.0 && NewtonOverhaulS > 0.0 &&
            TransientTracedS > 0.0 && TransientAuditedS > 0.0 &&
            SweepSerialS > 0.0 && SweepParallelS > 0.0 && LadderOk &&
            DenseStep4096S > 0.0 && SparseStep4096S > 0.0 &&
            Sparse8k.PerSolveS > 0.0 && SparseStep8192S > 0.0 &&
            LadderMaxDiffC < 1e-4 && DenseBytesGate > SparseBytesGate;
  Bench.writeOrWarn(Ok);
  return Ok ? 0 : 1;
}
