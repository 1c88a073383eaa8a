//===- tests/ledger_test.cpp - Exact work counts of production paths ------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work ledger: exact counts of the work the production paths do,
/// read as telemetry counter deltas. Work counts do not move with the
/// host the way wall times do, so a change that adds a factorization,
/// loses a factor reuse, moves a workload onto another solve path or
/// reruns a sweep replicate fails here, and each count that moved is
/// named.
///
//===----------------------------------------------------------------------===//

#include "core/Designs.h"
#include "faults/Scenario.h"
#include "faults/Sweep.h"
#include "fluids/Fluid.h"
#include "hydraulics/Balancing.h"
#include "hydraulics/InternalLoop.h"
#include "sim/RackTransient.h"
#include "sim/Transient.h"
#include "system/Rack.h"
#include "telemetry/Telemetry.h"
#include "thermal/Fleet.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

using namespace rcs;

namespace {

/// Checks that \p Body moves each counter in \p Names by exactly the
/// matching entry of \p Want.
template <size_t N, typename Fn>
void expectWork(const std::array<const char *, N> &Names,
                const std::array<uint64_t, N> &Want, Fn &&Body) {
  auto Read = [&](size_t I) {
    return telemetry::Registry::global().counter(Names[I]).value();
  };
  std::array<uint64_t, N> Before;
  for (size_t I = 0; I != N; ++I)
    Before[I] = Read(I);
  Body();
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Read(I) - Before[I], Want[I]) << Names[I];
}

/// The counters the thermal slice pins.
constexpr std::array<const char *, 5> ThermalCounters = {
    "thermal.network.factorizations", "thermal.network.factor_reuses",
    "thermal.network.sparse_symbolic", "thermal.network.sparse_solves",
    "thermal.network.transient_steps"};

/// The counters the sweep slice pins.
constexpr std::array<const char *, 5> SweepCounters = {
    "faults.scenario.runs", "sim.transient.steps",
    "thermal.network.factorizations", "thermal.network.transient_steps",
    "audit.energy.steps"};

/// The counters the design slice pins: hydraulic Newton work, the edge
/// inversions inside its residuals and the edge-drop evaluations they
/// make, and the module fixed point's junction-temperature solves.
constexpr std::array<const char *, 5> DesignCounters = {
    "hydraulics.flow.solves", "hydraulics.newton.iterations",
    "hydraulics.edge_inversion.searches",
    "hydraulics.edge_inversion.evaluations",
    "system.module.junction_solves"};

/// A module campaign whose replicates differ: a pump-failure hazard with a
/// mean time to failure near the horizon.
faults::Scenario makeLedgerSweepScenario() {
  faults::Scenario S;
  S.Name = "ledger-sweep";
  S.DurationS = 0.5 * 3600.0;
  S.Seed = 17;
  S.Policy.CriticalPeriodsToShutdown = 2;
  faults::HazardSpec Hazard;
  Hazard.Kind = faults::FaultKind::PumpFailure;
  Hazard.Id = "pump";
  Hazard.MttfHours = 0.6;
  Hazard.RepairHours = 0.2;
  S.Hazards.push_back(Hazard);
  return S;
}

} // namespace

TEST(ThermalLedgerTest, ModuleTransientRefactorsEveryStep) {
  // Ten minutes at the default 2 s step: 301 steps, as the step loop
  // includes both end points. The simulator re-sets both conductances of
  // its two-unknown network every step, so each step refactors the dense
  // system and none reuses a factor.
  sim::TransientSimulator Simulator(core::makeSkatModule(),
                                    core::makeNominalConditions());
  expectWork(ThermalCounters, {301, 0, 0, 0, 301}, [&] {
    Expected<std::vector<sim::TraceSample>> Trace = Simulator.run(600.0);
    ASSERT_TRUE(Trace) << Trace.message();
  });
}

TEST(ThermalLedgerTest, RackTransientRefactorsEveryModuleStep) {
  // Ten minutes at the default 5 s step (121 steps, both end points) over
  // the 12 modules of the SKAT rack: one persistent network serves every
  // module, re-set and refactored for each module at each step.
  sim::RackTransientSimulator Simulator(core::makeSkatRack(), 25.0);
  expectWork(ThermalCounters, {1452, 0, 0, 0, 1452}, [&] {
    Expected<std::vector<sim::RackTraceSample>> Trace = Simulator.run(600.0);
    ASSERT_TRUE(Trace) << Trace.message();
  });
}

TEST(ThermalLedgerTest, FleetSequenceReusesItsFactors) {
  // A 24-rack row (408 unknowns, on the sparse path) driven the way
  // `skatsim fleet` and perfbench `fleet` drive it: a steady solve,
  // RHS-only steps, a CDU trim, more steps and a final steady solve.
  // Symbolic: one analysis per system, kept across the trim. Numeric: the
  // first solve of each system factors, the trim forces one refactor of
  // each, and every other solve reuses.
  thermal::FleetConfig Config;
  Config.NumRacks = 24;
  thermal::FleetNetwork Fleet = thermal::buildFleetNetwork(Config);
  ASSERT_TRUE(Fleet.Net.solvesSparse());
  expectWork(ThermalCounters, {4, 6, 2, 10, 8}, [&] {
    Expected<std::vector<double>> Steady = Fleet.Net.solveSteadyState();
    ASSERT_TRUE(Steady) << Steady.message();
    std::vector<double> Temps = *Steady;
    for (int Step = 0; Step != 4; ++Step) {
      Fleet.Net.setHeatSource(Fleet.Chips[Step], 700.0);
      Fleet.Net.setBoundaryTemp(Fleet.Facility, 18.0 + 0.5 * Step);
      ASSERT_TRUE(Fleet.Net.stepTransient(Temps, 5.0).isOk());
    }
    Fleet.Net.setConductance(Fleet.RackLoops[3], Fleet.Facility, 400.0);
    for (int Step = 0; Step != 4; ++Step)
      ASSERT_TRUE(Fleet.Net.stepTransient(Temps, 5.0).isOk());
    ASSERT_TRUE(Fleet.Net.solveSteadyState());
  });
}

TEST(SweepLedgerTest, ModuleSweepRunsEachReplicateOnceAtAnyThreadCount) {
  // Six replicates of a half-hour module scenario at the default 2 s step:
  // 901 steps each, both end points included, each one dense
  // factorization and one audited thermal step. Replicate 0 runs in the
  // pool like the rest, so the sweep runs six scenarios, not seven, and
  // the worker count changes none of the counts.
  faults::Scenario S = makeLedgerSweepScenario();
  for (int Threads : {1, 4}) {
    faults::SweepConfig Config;
    Config.NumReplicates = 6;
    Config.NumThreads = Threads;
    SCOPED_TRACE("threads " + std::to_string(Threads));
    expectWork(SweepCounters, {6, 5406, 5406, 5406, 5406}, [&] {
      Expected<faults::SweepReport> Report = faults::runSweep(S, Config);
      ASSERT_TRUE(Report) << Report.message();
      EXPECT_EQ(Report->FailedReplicates, 0);
    });
  }
}

TEST(SweepLedgerTest, AirCooledSweepFailsWithReplicateZerosError) {
  // An air-cooled design has no immersion transient plant: replicate 0
  // fails before it steps, and the sweep returns its error.
  faults::Scenario S = makeLedgerSweepScenario();
  S.Design = "taygeta";
  for (int Threads : {1, 4}) {
    faults::SweepConfig Config;
    Config.NumReplicates = 6;
    Config.NumThreads = Threads;
    SCOPED_TRACE("threads " + std::to_string(Threads));
    expectWork(SweepCounters, {0, 0, 0, 0, 0}, [&] {
      Expected<faults::SweepReport> Report = faults::runSweep(S, Config);
      ASSERT_FALSE(Report);
      EXPECT_EQ(Report.message(),
                "faults: design 'taygeta' has no immersion transient model "
                "(use skat, skat-plus or skat-plus-naive)");
    });
  }
}

TEST(DesignLedgerTest, ModuleSolveSolvesOneBoardClassPerSweep) {
  // The SKAT module feeds its 12 boards in parallel, so each of its 32
  // fixed-point sweeps solves one junction temperature, not twelve (384).
  // Its oil loop is a scalar root search, not a network solve.
  rcsystem::ComputationalModule Module(core::makeSkatModule());
  expectWork(DesignCounters, {0, 0, 0, 0, 32}, [&] {
    ASSERT_TRUE(Module.solveSteadyState(core::makeNominalConditions()));
  });
}

TEST(DesignLedgerTest, RackSolveCountsItsNetworkAndModuleWork) {
  // One primary-loop Newton solve, then one 32-sweep module solve per
  // powered module; an isolated loop powers its module down. Every edge
  // inversion hands Brent the two bracket values it already evaluated, so
  // the 288 searches make 576 fewer evaluations than re-evaluating them
  // would (3497 and 3560).
  rcsystem::Rack Rack(core::makeSkatRack());
  expectWork(DesignCounters, {1, 6, 288, 2921, 12 * 32},
             [&] { ASSERT_TRUE(Rack.solveSteadyState(25.0)); });
  expectWork(DesignCounters, {1, 6, 288, 2984, 11 * 32},
             [&] { ASSERT_TRUE(Rack.solveSteadyState(25.0, 3)); });
}

TEST(DesignLedgerTest, DirectReturnTrimCountsItsSolves) {
  // A direct-return manifold needs three trim passes, each a warm-started
  // Newton solve; 252 searches, two evaluations each fewer than with the
  // bracket ends evaluated twice (2949).
  hydraulics::RackHydraulicsConfig Config;
  Config.Layout = hydraulics::ManifoldLayout::DirectReturn;
  hydraulics::RackHydraulics Rack = hydraulics::buildRackPrimaryLoop(Config);
  auto Water = fluids::makeWater();
  expectWork(DesignCounters, {3, 8, 252, 2445, 0}, [&] {
    Expected<hydraulics::TrimResult> Trim =
        hydraulics::trimBalancingValves(Rack, *Water, 18.0);
    ASSERT_TRUE(Trim) << Trim.message();
    EXPECT_TRUE(Trim->Converged);
  });
}

TEST(DesignLedgerTest, InternalLoopSolveCountsItsInversions) {
  // A cold solve of the tapered internal oil loop (3864 evaluations with
  // the bracket ends evaluated twice).
  hydraulics::InternalLoop Loop =
      hydraulics::buildInternalLoop(hydraulics::InternalLoopConfig());
  auto Oil = fluids::makeEngineeredDielectric();
  expectWork(DesignCounters, {1, 6, 288, 3288, 0}, [&] {
    ASSERT_TRUE(hydraulics::solveInternalLoop(Loop, *Oil, 30.0));
  });
}
