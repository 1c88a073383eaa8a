//===- system/Module.cpp - Computational module (CM) --------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "system/Module.h"

#include "telemetry/Span.h"

#include <cassert>

using namespace rcs;
using namespace rcs::rcsystem;

ComputationalModule::ComputationalModule(ModuleConfig ConfigIn)
    : Config(std::move(ConfigIn)), Board(Config.Board) {
  assert(Config.NumCcbs >= 1 && "a module needs at least one CCB");
  assert(Config.HeightU >= 1 && "a module occupies at least 1U");
}

int ComputationalModule::computeFpgaCount() const {
  return Config.NumCcbs * Board.computeFpgaCount();
}

double ComputationalModule::peakGflops() const {
  return Config.NumCcbs * Board.peakGflops();
}

double ComputationalModule::boardsPerU() const {
  return static_cast<double>(Config.NumCcbs) / Config.HeightU;
}

double ComputationalModule::gflopsPerU() const {
  return peakGflops() / Config.HeightU;
}

Expected<ModuleThermalReport> ComputationalModule::solveSteadyState(
    const ExternalConditions &Conditions) const {
  return solveSteadyState(Conditions, Config.Load);
}

Expected<ModuleThermalReport> ComputationalModule::solveSteadyState(
    const ExternalConditions &Conditions,
    const fpga::WorkloadPoint &Load) const {
  static telemetry::Timer &SolveTimer =
      telemetry::Registry::global().timer("system.module.solve");
  telemetry::Span SolveSpan(SolveTimer);
  switch (Config.Cooling) {
  case CoolingKind::ForcedAir:
    return solveAirCooledModule(Config, Conditions, Load);
  case CoolingKind::ColdPlate:
    return solveColdPlateModule(Config, Conditions, Load);
  case CoolingKind::Immersion:
    return solveImmersionModule(Config, Conditions, Load);
  }
  assert(false && "unknown cooling kind");
  return Expected<ModuleThermalReport>::error("unknown cooling kind");
}
