//===- core/DesignSpace.h - Design exploration tools ------------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Design-space exploration utilities encoding the paper's engineering
/// method: Section 2's selection criteria for heat sinks and pumps and
/// Section 4's "experimentally improve the heat-sink optimal design" are
/// reproduced as parameter sweeps over the simulation models.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_CORE_DESIGNSPACE_H
#define RCS_CORE_DESIGNSPACE_H

#include "system/Module.h"

#include <vector>

namespace rcs {
namespace core {

/// One evaluated pin-fin sink candidate.
struct SinkCandidate {
  thermal::PinFinGeometry Geometry;
  double ResistanceKPerW = 0.0;   ///< Base-to-oil at the design flow.
  double PressureDropPa = 0.0;    ///< Across the bank at the design flow.
  double MaxJunctionTempC = 0.0;  ///< Solved on the given module.
  double Score = 0.0;             ///< Lower is better.
};

/// Sweep ranges for the pin-fin sink optimization.
struct SinkSweepRanges {
  std::vector<double> PinHeightsM = {0.008, 0.012, 0.016, 0.020};
  std::vector<double> PitchesM = {0.003, 0.004, 0.005};
  std::vector<double> PinDiametersM = {0.001, 0.0015, 0.002};
};

/// Evaluates every sink in the sweep on \p Module (immersion cooling
/// required) and returns candidates sorted best-first.
///
/// The score trades junction temperature against pumping pressure:
/// Score = MaxJunction + PressureWeight * dP. This mirrors the
/// experimental optimization of Section 4 (goal 4).
std::vector<SinkCandidate>
sweepImmersionSinks(const rcsystem::ModuleConfig &Module,
                    const rcsystem::ExternalConditions &Conditions,
                    const SinkSweepRanges &Ranges = SinkSweepRanges(),
                    double PressureWeightCPerPa = 2.0e-4);

/// One evaluated pump sizing.
struct PumpCandidate {
  double RatedFlowM3PerS = 0.0;
  double RatedHeadPa = 0.0;
  double AchievedFlowM3PerS = 0.0;
  double MaxJunctionTempC = 0.0;
  double PumpElectricalW = 0.0;
  double Score = 0.0; ///< Lower is better.
};

/// Sweeps oil-pump sizings on \p Module and returns candidates sorted
/// best-first; the score trades junction temperature against pump power
/// (Section 4 goal 2: "increase the performance of the heat-transfer
/// agent supply pump" - but not beyond what helps).
std::vector<PumpCandidate>
sweepOilPumps(const rcsystem::ModuleConfig &Module,
              const rcsystem::ExternalConditions &Conditions,
              const std::vector<double> &RatedFlowsM3PerS,
              const std::vector<double> &RatedHeadsPa,
              double PowerWeightCPerW = 5.0e-3);

/// Finds the warmest chilled-water setpoint that still keeps every FPGA
/// junction at or below \p JunctionLimitC (energy-saving design helper:
/// warmer water means a cheaper-running chiller). Returns the setpoint in
/// Celsius, searched over [MinC, MaxC] to 0.25 C.
Expected<double>
maxWaterSetpointForJunctionLimit(const rcsystem::ModuleConfig &Module,
                                 const rcsystem::ExternalConditions &Base,
                                 double JunctionLimitC, double MinC = 8.0,
                                 double MaxC = 45.0);

} // namespace core
} // namespace rcs

#endif // RCS_CORE_DESIGNSPACE_H
