//===- tests/ledger_test.cpp - Exact work counts of production paths ------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thermal slice of the work ledger: exact counts of the solver work
/// the production paths do, read as telemetry counter deltas. Work counts
/// do not move with the host the way wall times do, so a change that adds
/// a factorization, loses a factor reuse or moves a workload onto another
/// solve path fails here, and each count that moved is named.
///
//===----------------------------------------------------------------------===//

#include "core/Designs.h"
#include "sim/RackTransient.h"
#include "sim/Transient.h"
#include "telemetry/Telemetry.h"
#include "thermal/Fleet.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

using namespace rcs;

namespace {

/// The `thermal.network.*` counters the ledger pins, in ThermalWork order.
const char *const Counters[] = {"factorizations", "factor_reuses",
                                "sparse_symbolic", "sparse_solves",
                                "transient_steps"};
using ThermalWork = std::array<uint64_t, 5>;

/// Checks that \p Body moves each counter by exactly \p Want.
template <typename Fn>
void expectThermalWork(const ThermalWork &Want, Fn &&Body) {
  auto Read = [](size_t I) {
    return telemetry::Registry::global()
        .counter(std::string("thermal.network.") + Counters[I])
        .value();
  };
  ThermalWork Before;
  for (size_t I = 0; I != Want.size(); ++I)
    Before[I] = Read(I);
  Body();
  for (size_t I = 0; I != Want.size(); ++I)
    EXPECT_EQ(Read(I) - Before[I], Want[I]) << Counters[I];
}

} // namespace

TEST(ThermalLedgerTest, ModuleTransientRefactorsEveryStep) {
  // Ten minutes at the default 2 s step: 301 steps, as the step loop
  // includes both end points. The simulator re-sets both conductances of
  // its two-unknown network every step, so each step refactors the dense
  // system and none reuses a factor.
  sim::TransientSimulator Simulator(core::makeSkatModule(),
                                    core::makeNominalConditions());
  expectThermalWork({301, 0, 0, 0, 301}, [&] {
    Expected<std::vector<sim::TraceSample>> Trace = Simulator.run(600.0);
    ASSERT_TRUE(Trace) << Trace.message();
  });
}

TEST(ThermalLedgerTest, RackTransientRefactorsEveryModuleStep) {
  // Ten minutes at the default 5 s step (121 steps, both end points) over
  // the 12 modules of the SKAT rack: one persistent network serves every
  // module, re-set and refactored for each module at each step.
  sim::RackTransientSimulator Simulator(core::makeSkatRack(), 25.0);
  expectThermalWork({1452, 0, 0, 0, 1452}, [&] {
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
  expectThermalWork({4, 6, 2, 10, 8}, [&] {
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
