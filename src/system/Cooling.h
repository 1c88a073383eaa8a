//===- system/Cooling.h - CM cooling solvers --------------------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Steady-state cooling solvers for a computational module under the three
/// cooling technologies the paper compares:
///  - ForcedAir: the Rigel-2 / Taygeta generation (Section 1);
///  - ColdPlate: closed-loop liquid cooling (Section 2's SKIF-Avrora /
///    Aquasar discussion);
///  - Immersion: the paper's open-loop design (Sections 3-4).
///
/// Every solver iterates chip power and temperature to a joint fixed point
/// (leakage feedback) and returns a ModuleThermalReport.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_SYSTEM_COOLING_H
#define RCS_SYSTEM_COOLING_H

#include "fpga/PowerModel.h"
#include "support/Status.h"
#include "system/Board.h"
#include "thermal/HeatSink.h"
#include "thermal/Interface.h"

#include <memory>
#include <string>
#include <vector>

namespace rcs {
namespace rcsystem {

/// Cooling technology of a computational module.
enum class CoolingKind { ForcedAir, ColdPlate, Immersion };

/// Human-readable cooling kind.
const char *coolingKindName(CoolingKind Kind);

/// Forced-air cooling parameters (per module).
struct AirCoolingConfig {
  /// Total chassis airflow.
  double AirflowM3PerS = 0.30;
  /// Free flow cross-section; sets the duct velocity over the sinks.
  double FlowAreaM2 = 0.08;
  /// Per-FPGA plate-fin sink.
  thermal::PlateFinGeometry SinkGeometry;
  /// Fan power per unit airflow (system fans at typical pressure).
  double FanSpecificPowerWPerM3PerS = 900.0;
  /// Thermal grease bond-line multiplier (aging studies).
  double TimResistanceScale = 1.0;
};

/// Closed-loop cold-plate cooling parameters (per module).
struct ColdPlateCoolingConfig {
  /// Base-to-water resistance of one chip's plate (microchannel class).
  double PlateResistanceKPerW = 0.045;
  /// Secondary water flow through the module's plates.
  double WaterFlowM3PerS = 5.0e-4;
  /// Circulation pump electrical power.
  double PumpPowerW = 150.0;
  /// Number of leak/humidity sensors the design needs (complexity metric
  /// from Section 2; informational).
  int LeakSensorCount = 24;
};

/// Open-loop immersion cooling parameters (per module).
struct ImmersionCoolingConfig {
  /// Dielectric coolant choice.
  enum class Coolant { WhiteMineralOil, MineralOilMd45, EngineeredDielectric };
  Coolant CoolantKind = Coolant::EngineeredDielectric;

  /// Oil circulation pump(s) of the heat-exchange section.
  double PumpRatedFlowM3PerS = 2.2e-3;
  double PumpRatedHeadPa = 6.0e4;
  int NumPumps = 1;
  /// SKAT+ design change: pumps submerged in the bath (fewer components,
  /// their losses heat the oil).
  bool ImmersedPumps = false;

  /// Free flow cross-section past the boards; sets the sink approach
  /// velocity.
  double BathFlowAreaM2 = 0.030;
  /// Lumped loss coefficient of the bath + plena, referenced to the bath
  /// velocity dynamic head.
  double BathLossCoefficient = 12.0;

  /// Per-FPGA pin-fin sink (the solder-pin turbulator design).
  thermal::PinFinGeometry SinkGeometry;

  /// Oil-to-water plate heat exchanger.
  double HxUaWPerK = 3000.0;
  double HxOilRatedFlowM3PerS = 2.2e-3;
  double HxOilRatedDropPa = 3.0e4;

  /// Thermal interface choice and accumulated immersion exposure.
  enum class TimKind { SiliconeGrease, SkatInterface, GraphitePad };
  TimKind Tim = TimKind::SkatInterface;
  double TimExposureHours = 0.0;

  /// Oil distribution across boards: the SKAT circulation feeds all
  /// boards in parallel, so every board sees the same oil and the solver
  /// carries one board state for all of them; first-generation single-chip
  /// designs effectively run boards in series (one state per board) and
  /// build up "considerable thermal gradients".
  enum class OilDistribution { ParallelAcrossBoards, SeriesAlongBoards };
  OilDistribution Distribution = OilDistribution::ParallelAcrossBoards;
};

/// The bath fluid an immersion module is filled with.
std::unique_ptr<fluids::Fluid>
makeCoolant(ImmersionCoolingConfig::Coolant Kind);

/// The chip-to-sink interface an immersion module uses, over the package
/// footprint \p AreaM2.
thermal::ThermalInterface makeTim(ImmersionCoolingConfig::TimKind Kind,
                                  double AreaM2);

/// Boundary conditions a module sees from the room and the rack loop.
struct ExternalConditions {
  double AmbientAirTempC = 25.0;
  /// Primary chilled water at the module heat exchanger.
  double WaterInletTempC = 18.0;
  double WaterFlowM3PerS = 8.0e-4;
};

/// Thermal state of one compute FPGA.
struct FpgaThermalState {
  double JunctionTempC = 0.0;
  double PowerW = 0.0;
  /// Coolant (air or oil) temperature local to this device's sink.
  double LocalCoolantTempC = 0.0;
  /// Junction-to-coolant resistance used for this device.
  double TotalResistanceKPerW = 0.0;
  int BoardIndex = 0;
};

/// Full steady-state report for one module.
struct ModuleThermalReport {
  // Power breakdown, W.
  double FpgaHeatW = 0.0;
  double MiscHeatW = 0.0;   ///< Controller FPGAs, memories, VRM losses.
  double PsuLossW = 0.0;
  double PumpPowerW = 0.0;  ///< Coolant circulation (liquid systems).
  double FanPowerW = 0.0;   ///< Air movers (air systems).
  double TotalHeatW = 0.0;  ///< All heat leaving the module.
  double ItPowerW = 0.0;    ///< FPGA + misc (useful compute power).

  // Temperatures, C.
  double MaxJunctionTempC = 0.0;
  double MeanJunctionTempC = 0.0;
  double CoolantColdTempC = 0.0; ///< Oil after HX / chassis inlet air.
  double CoolantHotTempC = 0.0;  ///< Oil before HX / chassis outlet air.
  double WaterOutletTempC = 0.0; ///< Primary loop return (liquid only).

  // Flows.
  double CoolantFlowM3PerS = 0.0;
  double ApproachVelocityMPerS = 0.0;
  double HxDutyW = 0.0;
  double HxEffectiveness = 0.0;

  std::vector<FpgaThermalState> Fpgas;
  std::vector<double> PerBoardCoolantTempC;
  std::vector<std::string> Warnings;

  /// Max junction within the paper's long-life limit (65..70 C band).
  bool WithinReliableLimit = true;
  /// Max junction within the absolute device limit.
  bool WithinAbsoluteLimit = true;

  /// Overheat of the hottest junction relative to \p AmbientTempC - the
  /// metric the paper reports for Rigel-2 (+33.1 C) and Taygeta (+47.9 C).
  double overheatC(double AmbientTempC) const {
    return MaxJunctionTempC - AmbientTempC;
  }
};

// Forward declaration; defined in Module.h.
struct ModuleConfig;

/// Solves an air-cooled module.
Expected<ModuleThermalReport>
solveAirCooledModule(const ModuleConfig &Module,
                     const ExternalConditions &Conditions,
                     const fpga::WorkloadPoint &Load);

/// Solves a cold-plate (closed-loop) module.
Expected<ModuleThermalReport>
solveColdPlateModule(const ModuleConfig &Module,
                     const ExternalConditions &Conditions,
                     const fpga::WorkloadPoint &Load);

/// Solves an immersion (open-loop) module.
Expected<ModuleThermalReport>
solveImmersionModule(const ModuleConfig &Module,
                     const ExternalConditions &Conditions,
                     const fpga::WorkloadPoint &Load);

} // namespace rcsystem
} // namespace rcs

#endif // RCS_SYSTEM_COOLING_H
