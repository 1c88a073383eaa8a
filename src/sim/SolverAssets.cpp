//===- sim/SolverAssets.cpp - Reusable warmed solver state --------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/SolverAssets.h"

#include "system/Module.h"

#include <cassert>

using namespace rcs;
using namespace rcs::sim;
using namespace rcs::rcsystem;

TransientSolverAssets::TransientSolverAssets(const ModuleConfig &Module,
                                             const TransientConfig &Config) {
  assert(Module.Cooling == CoolingKind::Immersion &&
         "transient solver assets model immersion modules");
  Oil = Module.Immersion.CoolantKind ==
                ImmersionCoolingConfig::Coolant::MineralOilMd45
            ? fluids::makeMineralOilMd45()
        : Module.Immersion.CoolantKind ==
                ImmersionCoolingConfig::Coolant::WhiteMineralOil
            ? fluids::makeWhiteMineralOil()
            : fluids::makeEngineeredDielectric();
  Water = fluids::makeWater();

  Ccb Board(Module.Board);
  const int NumFpgas = Module.NumCcbs * Board.computeFpgaCount();
  ChipCapacitanceJPerK = NumFpgas * Config.ChipCapacitancePerFpgaJPerK;
  // Exact-table anchor: taken before the property cache resamples the
  // tables, matching the construction order of a cold run.
  FullOilCapacitanceJPerK =
      Config.OilVolumeM3 * Oil->volumetricHeatCapacityJPerM3K(35.0);

  Chips = Net.addNode("chips", ChipCapacitanceJPerK);
  Bath = Net.addNode("oil", FullOilCapacitanceJPerK);
  // The boundary value is a placeholder: every run rewrites it (and the
  // conductances, bath capacitance and heat sources) before stepping.
  WaterBoundary = Net.addBoundaryNode("water", 20.0);
  Net.addConductance(Chips, Bath, 1.0);
  Net.addConductance(Bath, WaterBoundary, 1.0);
  Net.addHeatSource(Chips, 0.0);
  Net.addHeatSource(Bath, 0.0);

  // Property lookups dominate the per-step conductance evaluation; the
  // uniform-grid cache makes them O(1) (agreement with the exact tables
  // is covered by the solver-equivalence tests).
  Oil->enablePropertyCache();
  Water->enablePropertyCache();
}
