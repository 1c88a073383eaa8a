//===- examples/fleet_thermal.cpp - Datacenter-scale sparse thermal solve ----===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fleet-scale thermal modeling: build a datacenter row of N racks x 8
/// immersion modules (thermal::buildFleetNetwork), solve its steady state
/// through the sparse LDL^T path, then ride out a facility-water
/// excursion transiently. At 128 racks the reduced system has 2176
/// unknowns — a scale where the dense seed path would need ~38 MB per
/// factor and O(n^3) work per refactorization, and the CSR +
/// fill-reducing-ordering path stays interactive.
///
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"
#include "support/Table.h"
#include "thermal/Fleet.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace rcs;

int main() {
  // 1. A row of 128 racks, 8 modules each, on shared 18 C facility water.
  thermal::FleetConfig Config;
  Config.NumRacks = 128;
  thermal::FleetNetwork Fleet = thermal::buildFleetNetwork(Config);
  thermal::ThermalNetwork &Net = Fleet.Net;

  std::printf("fleet: %zu racks x %zu modules, %zu unknowns (%s solve, "
              "threshold %zu)\n\n",
              Config.NumRacks, Config.ModulesPerRack,
              thermal::fleetUnknowns(Config),
              Net.solvesSparse() ? "sparse" : "dense",
              Net.sparseThresholdUnknowns());

  // 2. Steady state through the sparse path.
  Expected<std::vector<double>> Steady = Net.solveSteadyState();
  if (!Steady) {
    std::fprintf(stderr, "fleet solve failed: %s\n", Steady.message().c_str());
    return 1;
  }
  double MaxChipC = 0.0, MaxLoopC = 0.0;
  for (thermal::NodeId Chip : Fleet.Chips)
    MaxChipC = std::max(MaxChipC, (*Steady)[Chip]);
  for (thermal::NodeId Loop : Fleet.RackLoops)
    MaxLoopC = std::max(MaxLoopC, (*Steady)[Loop]);
  double FacilityHeatW = Net.boundaryHeatFlowW(Fleet.Facility, *Steady);

  Table Summary({"quantity", "value"});
  Summary.addRow({"total IT heat",
                  formatString("%.1f kW", Net.totalSourcePowerW() / 1000.0)});
  Summary.addRow({"facility heat pickup",
                  formatString("%.1f kW", FacilityHeatW / 1000.0)});
  Summary.addRow({"hottest chip", formatString("%.1f C", MaxChipC)});
  Summary.addRow({"hottest rack loop", formatString("%.1f C", MaxLoopC)});
  Summary.addRow({"energy residual",
                  formatString("%.2e W",
                               Net.steadyStateResidualW(*Steady))});
  Summary.addRow({"solver factor memory",
                  formatString("%.1f kB", Net.solverMemoryBytes() / 1024.0)});
  std::printf("%s\n", Summary.render().c_str());

  // 3. Facility-water excursion: the chillers lose 6 K for ten minutes.
  //    The transient factor is built once and reused every step; the
  //    warm-water excursion only touches the right-hand side.
  std::vector<double> Temps = *Steady;
  const double DtS = 5.0;
  double WorstChipC = MaxChipC;
  Net.setBoundaryTemp(Fleet.Facility, 24.0);
  for (int Step = 0; Step != 120; ++Step) {
    if (Status Stepped = Net.stepTransient(Temps, DtS); !Stepped.isOk()) {
      std::fprintf(stderr, "fleet step failed: %s\n",
                   Stepped.message().c_str());
      return 1;
    }
    for (thermal::NodeId Chip : Fleet.Chips)
      WorstChipC = std::max(WorstChipC, Temps[Chip]);
  }
  std::printf("after 10 min at 24 C facility water: hottest chip %.1f C "
              "(was %.1f C)\n",
              WorstChipC, MaxChipC);
  return 0;
}
