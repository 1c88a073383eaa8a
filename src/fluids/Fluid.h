//===- fluids/Fluid.h - Heat-transfer agent property models -----*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Temperature-dependent thermophysical property models for the
/// heat-transfer agents discussed in the paper: air, water, glycol
/// solutions, mineral oil (the MD-4.5 analog used in the SKAT modules) and
/// the custom engineered dielectric the authors developed.
///
/// All property accessors take the bulk fluid temperature in degrees
/// Celsius and return SI values. Properties are modeled as piecewise-linear
/// tables over each fluid's operating range and clamped outside it.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_FLUIDS_FLUID_H
#define RCS_FLUIDS_FLUID_H

#include "support/Interp.h"

#include <memory>
#include <optional>
#include <string>

namespace rcs {
namespace fluids {

/// Broad classification used by selection criteria and safety checks.
enum class FluidKind {
  Gas,             ///< Compressible gas coolant (air).
  AqueousLiquid,   ///< Electrically conducting liquid (water, glycol).
  DielectricLiquid ///< Immersion-safe dielectric liquid (oils).
};

/// A heat-transfer agent with temperature-dependent properties.
///
/// Subclasses provide property tables; this base class provides derived
/// quantities (kinematic viscosity, Prandtl number, volumetric heat
/// capacity) and metadata used by the paper's coolant selection criteria
/// (dielectric strength, flash point, cost).
class Fluid {
public:
  virtual ~Fluid();

  /// Human-readable fluid name, e.g. "mineral oil MD-4.5".
  const std::string &name() const { return Name; }

  FluidKind kind() const { return Kind; }

  /// True when the fluid can directly contact energized electronics.
  bool isDielectric() const { return Kind == FluidKind::DielectricLiquid; }

  /// Density in kg/m^3 at \p TempC.
  double densityKgPerM3(double TempC) const {
    return Cache ? Cache->Density.evaluate(TempC) : Density.evaluate(TempC);
  }

  /// Isobaric specific heat in J/(kg*K) at \p TempC.
  double specificHeatJPerKgK(double TempC) const {
    return Cache ? Cache->SpecificHeat.evaluate(TempC)
                 : SpecificHeat.evaluate(TempC);
  }

  /// Thermal conductivity in W/(m*K) at \p TempC.
  double thermalConductivityWPerMK(double TempC) const {
    return Cache ? Cache->Conductivity.evaluate(TempC)
                 : Conductivity.evaluate(TempC);
  }

  /// Dynamic viscosity in Pa*s at \p TempC.
  double dynamicViscosityPaS(double TempC) const {
    return Cache ? Cache->Viscosity.evaluate(TempC) : Viscosity.evaluate(TempC);
  }

  /// \name Property-table cache
  /// Opt-in resampling of the four property tables onto uniform
  /// temperature grids so accessors become O(1) index lookups instead of
  /// binary searches — useful when a solver evaluates properties millions
  /// of times per run. With the default 0.25 C step every knot of the
  /// built-in fluids lands exactly on the grid, so cached values agree
  /// with the exact tables up to floating-point rounding (~1e-15
  /// relative); clamping outside the table range is identical.
  /// @{
  void enablePropertyCache(double StepC = 0.25);
  void disablePropertyCache() { Cache.reset(); }
  bool propertyCacheEnabled() const { return Cache != nullptr; }
  /// @}

  /// Kinematic viscosity in m^2/s at \p TempC.
  double kinematicViscosityM2PerS(double TempC) const {
    return dynamicViscosityPaS(TempC) / densityKgPerM3(TempC);
  }

  /// Prandtl number at \p TempC.
  double prandtl(double TempC) const {
    return specificHeatJPerKgK(TempC) * dynamicViscosityPaS(TempC) /
           thermalConductivityWPerMK(TempC);
  }

  /// Volumetric heat capacity rho*cp in J/(m^3*K) at \p TempC.
  double volumetricHeatCapacityJPerM3K(double TempC) const {
    return densityKgPerM3(TempC) * specificHeatJPerKgK(TempC);
  }

  /// Thermal diffusivity k/(rho*cp) in m^2/s at \p TempC.
  double thermalDiffusivityM2PerS(double TempC) const {
    return thermalConductivityWPerMK(TempC) /
           volumetricHeatCapacityJPerM3K(TempC);
  }

  /// Lowest safe bulk temperature (freezing / pour point margin).
  double minOperatingTempC() const { return MinTempC; }

  /// Highest safe bulk temperature (boiling / degradation margin).
  double maxOperatingTempC() const { return MaxTempC; }

  /// Breakdown field strength in kV/mm; nullopt for conducting fluids.
  std::optional<double> dielectricStrengthKvPerMm() const {
    return DielectricStrengthKvPerMm;
  }

  /// Flash point in Celsius; nullopt for non-flammable fluids.
  std::optional<double> flashPointC() const { return FlashPointTempC; }

  /// Indicative price used by the selection-criteria scoring.
  double costPerLiterUsd() const { return CostPerLiterUsd; }

protected:
  Fluid(std::string Name, FluidKind Kind, LinearTable Density,
        LinearTable SpecificHeat, LinearTable Conductivity,
        LinearTable Viscosity, double MinTempC, double MaxTempC);

  void setDielectricStrength(double KvPerMm) {
    DielectricStrengthKvPerMm = KvPerMm;
  }
  void setFlashPoint(double TempC) { FlashPointTempC = TempC; }
  void setCostPerLiter(double Usd) { CostPerLiterUsd = Usd; }

private:
  struct PropertyCache {
    UniformTable Density;
    UniformTable SpecificHeat;
    UniformTable Conductivity;
    UniformTable Viscosity;
  };

  std::string Name;
  FluidKind Kind;
  LinearTable Density;
  LinearTable SpecificHeat;
  LinearTable Conductivity;
  LinearTable Viscosity;
  std::unique_ptr<PropertyCache> Cache;
  double MinTempC;
  double MaxTempC;
  std::optional<double> DielectricStrengthKvPerMm;
  std::optional<double> FlashPointTempC;
  double CostPerLiterUsd = 0.0;
};

/// Dry air at one atmosphere.
std::unique_ptr<Fluid> makeAir();

/// Liquid water at one atmosphere (0..100 C).
std::unique_ptr<Fluid> makeWater();

/// Propylene-glycol/water solution; \p GlycolFraction in [0.2, 0.5].
std::unique_ptr<Fluid> makeGlycolSolution(double GlycolFraction);

/// Low-viscosity mineral oil modeled after the MD-4.5 agent the paper's
/// SKAT modules circulate (nu ~ 4.5 cSt at 40 C).
std::unique_ptr<Fluid> makeMineralOilMd45();

/// The engineered dielectric the authors developed for SKAT: mineral-oil
/// base with improved heat capacity, lower viscosity and higher breakdown
/// strength (paper Section 3).
std::unique_ptr<Fluid> makeEngineeredDielectric();

/// Generic white mineral oil as used by early immersion systems (higher
/// viscosity than MD-4.5); baseline for the coolant-selection experiments.
std::unique_ptr<Fluid> makeWhiteMineralOil();

} // namespace fluids
} // namespace rcs

#endif // RCS_FLUIDS_FLUID_H
