//===- fpga/PowerModel.h - FPGA power model ---------------------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Power model for one FPGA: dynamic CV^2 f power scaling with utilization
/// and clock fraction plus temperature-dependent static leakage (leakage
/// roughly doubles every 25 C of junction temperature). The leakage
/// feedback is what pushes hot, air-cooled parts toward thermal runaway -
/// the mechanism behind the paper's "air cooling has reached its limit"
/// argument - so the thermal solvers iterate power and temperature to a
/// joint fixed point.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_FPGA_POWERMODEL_H
#define RCS_FPGA_POWERMODEL_H

#include "fpga/Device.h"

namespace rcs {
namespace fpga {

/// Operating point of one FPGA's workload.
struct WorkloadPoint {
  /// Fraction of the device's hardware resource in use (the paper quotes
  /// production workloads of 85..95%).
  double Utilization = 0.90;
  /// Fabric clock relative to nominal.
  double ClockFraction = 1.0;
};

/// Per-device power evaluation.
class FpgaPowerModel {
public:
  explicit FpgaPowerModel(const FpgaSpec &Spec) : Spec(&Spec) {}

  /// Static leakage at junction temperature \p JunctionTempC, W.
  double staticPowerW(double JunctionTempC) const;

  /// Dynamic switching power for \p Load, W (temperature independent).
  double dynamicPowerW(const WorkloadPoint &Load) const;

  /// Total power at the given workload and junction temperature, W.
  double totalPowerW(const WorkloadPoint &Load, double JunctionTempC) const;

  /// Solves the electrothermal fixed point P = total(T), T = TRef + P * R.
  ///
  /// \p ThermalResistanceKPerW is the junction-to-reference resistance and
  /// \p ReferenceTempC the coolant/ambient reference. \returns the
  /// converged junction temperature; diverging leakage (thermal runaway)
  /// returns a temperature beyond MaxJunctionTempC, which callers should
  /// flag.
  double solveJunctionTempC(const WorkloadPoint &Load,
                            double ThermalResistanceKPerW,
                            double ReferenceTempC) const;

  /// Power at the fixed point of solveJunctionTempC.
  double solvePowerW(const WorkloadPoint &Load,
                     double ThermalResistanceKPerW,
                     double ReferenceTempC) const;

  const FpgaSpec &spec() const { return *Spec; }

private:
  const FpgaSpec *Spec;
};

} // namespace fpga
} // namespace rcs

#endif // RCS_FPGA_POWERMODEL_H
