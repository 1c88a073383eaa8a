//===- core/Uncertainty.h - Tolerance analysis ------------------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monte-Carlo tolerance analysis: how robust is a module's thermal
/// envelope against manufacturing spread and operating drift? Pump curves,
/// heat-exchanger fouling, solder-pin quality, bath geometry, board power
/// and facility water all vary in production; the paper's measured
/// envelope (coolant <= 30 C, junctions <= 55 C) is only credible if it
/// holds across that spread, not just at nominal.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_CORE_UNCERTAINTY_H
#define RCS_CORE_UNCERTAINTY_H

#include "system/Module.h"

#include <cstdint>

namespace rcs {
namespace core {

/// One-sigma tolerances applied to the sampled parameters. Relative
/// entries are fractions of the nominal; absolute entries are in the
/// quantity's own unit.
struct ToleranceSpec {
  double TurbulatorRel = 0.06;  ///< Solder-pin convection enhancement.
  double PinHeightRel = 0.05;   ///< Sink manufacturing.
  double PumpFlowRel = 0.08;    ///< Pump curve spread.
  double PumpHeadRel = 0.08;
  double HxUaRel = 0.12;        ///< Plate pack tolerance + fouling.
  double BathAreaRel = 0.08;    ///< Assembly clearances.
  double MiscPowerRel = 0.10;   ///< Board infrastructure power.
  double WaterInletAbsC = 1.0;  ///< Facility water regulation.
  double UtilizationAbs = 0.03; ///< Workload placement variation.
};

/// Aggregated results of the tolerance sweep.
struct UncertaintyResult {
  int NumSamples = 0;
  int NumFailedSolves = 0;

  double MeanMaxJunctionC = 0.0;
  double StdMaxJunctionC = 0.0;
  double P95MaxJunctionC = 0.0;
  double WorstMaxJunctionC = 0.0;

  double MeanCoolantHotC = 0.0;
  double P95CoolantHotC = 0.0;
  double WorstCoolantHotC = 0.0;

  /// Fraction of samples violating the given limits.
  double OverJunctionLimitFraction = 0.0;
  double OverCoolantLimitFraction = 0.0;
};

/// Runs the tolerance Monte-Carlo on an immersion module.
///
/// Each sample perturbs the ToleranceSpec parameters with independent
/// normal draws (clamped at +-3 sigma), solves the steady state, and
/// accumulates the envelope statistics against \p JunctionLimitC and
/// \p CoolantLimitC.
UncertaintyResult
analyzeModuleTolerances(const rcsystem::ModuleConfig &Nominal,
                        const rcsystem::ExternalConditions &Conditions,
                        const ToleranceSpec &Tolerances, int NumSamples,
                        uint64_t Seed, double JunctionLimitC = 55.0,
                        double CoolantLimitC = 30.5);

} // namespace core
} // namespace rcs

#endif // RCS_CORE_UNCERTAINTY_H
