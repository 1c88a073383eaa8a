//===- system/Module.h - Computational module (CM) --------------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The computational module (CM): the paper's 19"-rack building block. A
/// CM aggregates computational circuit boards, power supplies and a cooling
/// system; the new-generation design (Fig. 1-a) is a 3U casing whose
/// computational section holds 12..16 CCBs immersed in dielectric coolant
/// and whose heat-exchange section holds the pump and plate heat exchanger.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_SYSTEM_MODULE_H
#define RCS_SYSTEM_MODULE_H

#include "system/Board.h"
#include "system/Cooling.h"
#include "system/PowerSupply.h"

#include <string>

namespace rcs {
namespace rcsystem {

/// Static configuration of one computational module.
struct ModuleConfig {
  std::string Name = "CM";
  int HeightU = 3;
  int NumCcbs = 12;
  CcbConfig Board;
  /// Default workload when none is passed to the solver.
  fpga::WorkloadPoint Load;
  int NumPsus = 3;
  double PsuRatedPowerW = 4000.0;

  CoolingKind Cooling = CoolingKind::Immersion;
  AirCoolingConfig Air;
  ColdPlateCoolingConfig ColdPlate;
  ImmersionCoolingConfig Immersion;
};

/// A computational module: configuration + derived metrics + solvers.
class ComputationalModule {
public:
  explicit ComputationalModule(ModuleConfig Config);

  const ModuleConfig &config() const { return Config; }
  const Ccb &board() const { return Board; }

  /// Total compute FPGAs in the module.
  int computeFpgaCount() const;

  /// Peak throughput of the module, GFLOPS.
  double peakGflops() const;

  /// Packing density: CCBs per rack unit of height.
  double boardsPerU() const;

  /// Specific performance: GFLOPS per rack unit.
  double gflopsPerU() const;

  /// Steady state under the module's default workload.
  Expected<ModuleThermalReport>
  solveSteadyState(const ExternalConditions &Conditions) const;

  /// Steady state under an explicit workload.
  Expected<ModuleThermalReport>
  solveSteadyState(const ExternalConditions &Conditions,
                   const fpga::WorkloadPoint &Load) const;

private:
  ModuleConfig Config;
  Ccb Board;
};

} // namespace rcsystem
} // namespace rcs

#endif // RCS_SYSTEM_MODULE_H
