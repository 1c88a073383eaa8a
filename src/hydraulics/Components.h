//===- hydraulics/Components.h - Flow elements ------------------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pressure-drop elements for the hydraulic network: pipes (Darcy-Weisbach
/// with the Churchill friction factor), fittings, balancing valves, pump
/// curves with affinity-law speed scaling, and the oil side of plate heat
/// exchangers. Every element maps a signed volume flow to a signed pressure
/// drop and is strictly monotonic in flow, which the network solver relies
/// on for invertibility.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_HYDRAULICS_COMPONENTS_H
#define RCS_HYDRAULICS_COMPONENTS_H

#include "fluids/Fluid.h"
#include "support/Interp.h"

#include <memory>
#include <string>

namespace rcs {
namespace hydraulics {

/// An element of a hydraulic edge mapping flow to pressure drop.
///
/// Sign convention: positive flow is in the edge's from->to direction and
/// positive pressure drop opposes it. Pumps return negative drops (they add
/// head). Implementations must be strictly increasing in flow.
class FlowElement {
public:
  virtual ~FlowElement();

  /// Signed pressure drop in Pa at \p FlowM3PerS of \p F at \p TempC.
  virtual double pressureDropPa(double FlowM3PerS, const fluids::Fluid &F,
                                double TempC) const = 0;

  /// d(pressureDropPa)/d(flow) at \p FlowM3PerS, in Pa/(m^3/s).
  ///
  /// Nonnegative by the monotonicity contract (strictly positive away
  /// from flat spots). The network solver sums these per edge to build
  /// its analytic Newton Jacobian. The base implementation falls back to
  /// a central difference of pressureDropPa for out-of-tree elements;
  /// every bundled element overrides it with the exact derivative.
  virtual double pressureDropSlopePaPerM3S(double FlowM3PerS,
                                           const fluids::Fluid &F,
                                           double TempC) const;

  /// Human-readable element description.
  virtual std::string describe() const = 0;
};

/// A straight pipe: Darcy-Weisbach with the Churchill friction factor,
/// valid across laminar, transitional and turbulent regimes.
class PipeSegment : public FlowElement {
public:
  /// \p RoughnessM defaults to drawn tubing (1.5 um).
  PipeSegment(double LengthM, double DiameterM, double RoughnessM = 1.5e-6);

  double pressureDropPa(double FlowM3PerS, const fluids::Fluid &F,
                        double TempC) const override;
  double pressureDropSlopePaPerM3S(double FlowM3PerS, const fluids::Fluid &F,
                                   double TempC) const override;
  std::string describe() const override;

  double lengthM() const { return LengthM; }
  double diameterM() const { return DiameterM; }

  /// Mean velocity at \p FlowM3PerS.
  double velocityMPerS(double FlowM3PerS) const;

private:
  double LengthM;
  double DiameterM;
  double RoughnessM;
  double AreaM2;
};

/// A minor-loss fitting (elbow, tee, entry/exit): dP = K * rho * v^2 / 2
/// referenced to the given bore diameter.
class Fitting : public FlowElement {
public:
  Fitting(double LossCoefficient, double DiameterM);

  double pressureDropPa(double FlowM3PerS, const fluids::Fluid &F,
                        double TempC) const override;
  double pressureDropSlopePaPerM3S(double FlowM3PerS, const fluids::Fluid &F,
                                   double TempC) const override;
  std::string describe() const override;

private:
  double LossCoefficient;
  double DiameterM;
  double AreaM2;
};

/// A balancing valve with adjustable opening.
///
/// Fully open it behaves as a fitting with \p OpenLossCoefficient; closing
/// scales the loss as 1/opening^2. Opening zero models a shut valve with a
/// very large but finite resistance (keeps the solver regular).
class BalancingValve : public FlowElement {
public:
  BalancingValve(double OpenLossCoefficient, double DiameterM);

  /// Sets the opening fraction in [0, 1].
  void setOpening(double Fraction);
  double opening() const { return OpeningFraction; }

  double pressureDropPa(double FlowM3PerS, const fluids::Fluid &F,
                        double TempC) const override;
  double pressureDropSlopePaPerM3S(double FlowM3PerS, const fluids::Fluid &F,
                                   double TempC) const override;
  std::string describe() const override;

private:
  double OpenLossCoefficient;
  double DiameterM;
  double AreaM2;
  double OpeningFraction = 1.0;
};

/// The hydraulic (pressure-drop) side of a plate heat exchanger channel
/// pack, modeled as an equivalent quadratic resistance calibrated by the
/// rated operating point.
class HeatExchangerPressureSide : public FlowElement {
public:
  /// Rated \p RatedDropPa at \p RatedFlowM3PerS (from a datasheet).
  HeatExchangerPressureSide(double RatedFlowM3PerS, double RatedDropPa);

  double pressureDropPa(double FlowM3PerS, const fluids::Fluid &F,
                        double TempC) const override;
  double pressureDropSlopePaPerM3S(double FlowM3PerS, const fluids::Fluid &F,
                                   double TempC) const override;
  std::string describe() const override;

private:
  double QuadraticCoefficient; // Pa / (m^3/s)^2
  double LinearCoefficient;    // Pa / (m^3/s), keeps dP monotone near zero.
};

/// A centrifugal pump: head curve plus affinity-law speed scaling.
///
/// As a FlowElement its pressure "drop" is the negative of the head it
/// adds. Reverse flow through a running pump is resisted steeply.
class Pump : public FlowElement {
public:
  /// \p HeadCurve maps flow (m^3/s) to added head (Pa) at full speed; the
  /// head must strictly decrease with flow. \p Efficiency is the combined
  /// hydraulic+motor efficiency at the best point.
  Pump(std::string Name, LinearTable HeadCurve, double Efficiency = 0.55);

  /// Sets the relative speed in [0, 1.2]; affinity laws scale head by
  /// speed^2 and the flow axis by speed.
  void setSpeedFraction(double Fraction);
  double speedFraction() const { return SpeedFraction; }

  /// True when the pump is stopped (speed == 0); a stopped pump acts as a
  /// high-resistance element (check-valve-free design).
  bool isStopped() const { return SpeedFraction <= 0.0; }

  /// Head added at \p FlowM3PerS, Pa (>= 0 for forward flow below runout).
  double headPa(double FlowM3PerS) const;

  /// Electrical power drawn while pumping \p FlowM3PerS, W.
  double electricalPowerW(double FlowM3PerS) const;

  double pressureDropPa(double FlowM3PerS, const fluids::Fluid &F,
                        double TempC) const override;
  double pressureDropSlopePaPerM3S(double FlowM3PerS, const fluids::Fluid &F,
                                   double TempC) const override;
  std::string describe() const override;

  const std::string &name() const { return Name; }

  /// An industrial oil-duty pump sized for one SKAT CM loop (paper
  /// Section 2's pump criteria: oil-compatible, IP-55, low vibration).
  static Pump makeOilCirculationPump(std::string Name,
                                     double RatedFlowM3PerS,
                                     double RatedHeadPa);

private:
  std::string Name;
  LinearTable HeadCurve;
  double Efficiency;
  double SpeedFraction = 1.0;
};

} // namespace hydraulics
} // namespace rcs

#endif // RCS_HYDRAULICS_COMPONENTS_H
