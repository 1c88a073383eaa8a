//===- system/Rack.cpp - Computer rack assembly --------------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "system/Rack.h"

#include "support/StringUtils.h"
#include "support/Units.h"
#include "telemetry/Span.h"

#include <cassert>
#include <cmath>

using namespace rcs;
using namespace rcs::rcsystem;

Rack::Rack(RackConfig ConfigIn) : Config(std::move(ConfigIn)) {
  assert(Config.NumModules >= 1 && "a rack needs modules");
}

double Rack::peakGflops() const {
  ComputationalModule Module(Config.Module);
  return Config.NumModules * Module.peakGflops();
}

double Rack::peakPflops() const { return peakGflops() * 1e9 / units::Peta; }

int Rack::maxModulesByHeight() const {
  // Reserve 5U for manifolds, power distribution and cabling.
  return (Config.HeightU - 5) / Config.Module.HeightU;
}

Expected<RackReport>
Rack::solveSteadyState(double AmbientTempC,
                       std::optional<int> IsolatedLoop) const {
  static telemetry::Timer &SolveTimer =
      telemetry::Registry::global().timer("system.rack.solve");
  telemetry::Span SolveSpan(SolveTimer);
  RackReport Report;
  if (IsolatedLoop && (*IsolatedLoop < 0 || *IsolatedLoop >=
                                                Config.NumModules))
    return Expected<RackReport>::error("isolated loop index out of range");

  // --- Primary water distribution ---------------------------------------
  hydraulics::RackHydraulicsConfig HydroConfig = Config.Hydraulics;
  HydroConfig.NumLoops = Config.NumModules;
  hydraulics::RackHydraulics Hydro =
      hydraulics::buildRackPrimaryLoop(HydroConfig);
  if (IsolatedLoop) {
    auto *Valve = static_cast<hydraulics::BalancingValve *>(
        Hydro.Network.elementAt(Hydro.LoopEdges[*IsolatedLoop],
                                Hydro.LoopValveElementIndex));
    Valve->setOpening(0.0);
  }
  auto Water = fluids::makeWater();
  Expected<hydraulics::FlowSolution> Flow =
      Hydro.Network.solve(*Water, Config.ChillerSupplyTempC, 1e-3);
  if (!Flow)
    return Expected<RackReport>::error("rack hydraulic solve failed: " +
                                       Flow.message());
  for (hydraulics::EdgeId E : Hydro.LoopEdges)
    Report.LoopFlowsM3PerS.push_back(Flow->EdgeFlowsM3PerS[E]);
  Report.Balance = hydraulics::computeFlowBalance(Report.LoopFlowsM3PerS);

  double PumpFlow = Flow->EdgeFlowsM3PerS[Hydro.PumpEdge];
  hydraulics::Pump PrimaryPump = hydraulics::Pump::makeOilCirculationPump(
      "rack-primary", HydroConfig.PumpRatedFlowM3PerS,
      HydroConfig.PumpRatedHeadPa);
  Report.PrimaryPumpPowerW = PrimaryPump.electricalPowerW(PumpFlow);

  // --- Per-module thermal solves -----------------------------------------
  ComputationalModule Module(Config.Module);
  double ChillerDuty = 0.0;
  for (int I = 0; I != Config.NumModules; ++I) {
    if (IsolatedLoop && *IsolatedLoop == I) {
      // Valved off: the module is powered down for maintenance.
      ModuleThermalReport Down;
      Down.Warnings.push_back("module isolated for maintenance");
      Report.Modules.push_back(std::move(Down));
      continue;
    }
    ExternalConditions Conditions;
    Conditions.AmbientAirTempC = AmbientTempC;
    Conditions.WaterInletTempC = Config.ChillerSupplyTempC;
    Conditions.WaterFlowM3PerS = Report.LoopFlowsM3PerS[I];
    Expected<ModuleThermalReport> ModuleReport =
        Module.solveSteadyState(Conditions);
    if (!ModuleReport)
      return Expected<RackReport>::error(
          formatString("module %d failed to solve: ", I) +
          ModuleReport.message());
    Report.TotalItPowerW += ModuleReport->ItPowerW;
    Report.ModulePumpFanPowerW +=
        ModuleReport->PumpPowerW + ModuleReport->FanPowerW;
    Report.TotalHeatW += ModuleReport->TotalHeatW;
    ChillerDuty += ModuleReport->HxDutyW > 0.0 ? ModuleReport->HxDutyW
                                               : ModuleReport->TotalHeatW;
    Report.MaxJunctionTempC = std::max(Report.MaxJunctionTempC,
                                       ModuleReport->MaxJunctionTempC);
    for (const std::string &Warning : ModuleReport->Warnings)
      Report.Warnings.push_back(formatString("CM %d: ", I + 1) + Warning);
    Report.Modules.push_back(std::move(*ModuleReport));
  }

  // --- Chiller balance ----------------------------------------------------
  Chiller Plant("rack chiller", Config.ChillerSupplyTempC,
                Config.ChillerRatedDutyW);
  if (Plant.isOverloaded(ChillerDuty))
    Report.Warnings.push_back(
        formatString("chiller overloaded: duty %.0f W exceeds rating %.0f W",
                     ChillerDuty, Config.ChillerRatedDutyW));
  Report.ChillerPowerW = Plant.electricalPowerW(ChillerDuty, AmbientTempC);
  Report.CoolingPowerW = Report.ChillerPowerW + Report.PrimaryPumpPowerW +
                         Report.ModulePumpFanPowerW;

  double PsuLosses = 0.0;
  for (const ModuleThermalReport &M : Report.Modules)
    PsuLosses += M.PsuLossW;
  double FacilityPower =
      Report.TotalItPowerW + PsuLosses + Report.CoolingPowerW;
  Report.Pue = Report.TotalItPowerW > 0.0
                   ? FacilityPower / Report.TotalItPowerW
                   : 0.0;

  int ActiveModules =
      Config.NumModules - (IsolatedLoop.has_value() ? 1 : 0);
  Report.PeakGflops = ActiveModules * Module.peakGflops();
  return Report;
}
