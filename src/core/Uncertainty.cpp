//===- core/Uncertainty.cpp - Tolerance analysis --------------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Uncertainty.h"

#include "support/Random.h"
#include "telemetry/Span.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

using namespace rcs;
using namespace rcs::core;
using namespace rcs::rcsystem;

/// Normal draw clamped to +-3 sigma (keeps single outliers from producing
/// unphysical geometry).
static double perturb(RandomEngine &Rng, double Nominal, double RelSigma) {
  double Draw = Rng.normal(0.0, RelSigma);
  Draw = std::clamp(Draw, -3.0 * RelSigma, 3.0 * RelSigma);
  return Nominal * (1.0 + Draw);
}

static double percentile(std::vector<double> Values, double Fraction) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Index = Fraction * (Values.size() - 1);
  size_t Lo = static_cast<size_t>(Index);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double T = Index - Lo;
  return Values[Lo] * (1.0 - T) + Values[Hi] * T;
}

UncertaintyResult rcs::core::analyzeModuleTolerances(
    const ModuleConfig &Nominal, const ExternalConditions &Conditions,
    const ToleranceSpec &Tolerances, int NumSamples, uint64_t Seed,
    double JunctionLimitC, double CoolantLimitC) {
  assert(Nominal.Cooling == CoolingKind::Immersion &&
         "tolerance analysis models immersion modules");
  assert(NumSamples > 0 && "need at least one sample");
  static telemetry::Timer &RunTimer =
      telemetry::Registry::global().timer("core.tolerances");
  telemetry::Span RunSpan(RunTimer);

  RandomEngine Rng(Seed);
  UncertaintyResult Result;
  Result.NumSamples = NumSamples;

  std::vector<double> Junctions, Coolants;
  Junctions.reserve(NumSamples);
  Coolants.reserve(NumSamples);

  for (int Sample = 0; Sample != NumSamples; ++Sample) {
    ModuleConfig Variant = Nominal;
    ImmersionCoolingConfig &Immersion = Variant.Immersion;
    Immersion.SinkGeometry.TurbulatorFactor =
        std::clamp(perturb(Rng, Immersion.SinkGeometry.TurbulatorFactor,
                           Tolerances.TurbulatorRel),
                   1.0, 2.0);
    Immersion.SinkGeometry.PinHeightM =
        perturb(Rng, Immersion.SinkGeometry.PinHeightM,
                Tolerances.PinHeightRel);
    Immersion.PumpRatedFlowM3PerS = perturb(
        Rng, Immersion.PumpRatedFlowM3PerS, Tolerances.PumpFlowRel);
    Immersion.PumpRatedHeadPa =
        perturb(Rng, Immersion.PumpRatedHeadPa, Tolerances.PumpHeadRel);
    Immersion.HxUaWPerK =
        perturb(Rng, Immersion.HxUaWPerK, Tolerances.HxUaRel);
    Immersion.BathFlowAreaM2 =
        perturb(Rng, Immersion.BathFlowAreaM2, Tolerances.BathAreaRel);
    Variant.Board.MiscPowerW =
        perturb(Rng, Variant.Board.MiscPowerW, Tolerances.MiscPowerRel);

    ExternalConditions SampleConditions = Conditions;
    SampleConditions.WaterInletTempC +=
        std::clamp(Rng.normal(0.0, Tolerances.WaterInletAbsC),
                   -3.0 * Tolerances.WaterInletAbsC,
                   3.0 * Tolerances.WaterInletAbsC);
    fpga::WorkloadPoint Load = Variant.Load;
    Load.Utilization = std::clamp(
        Load.Utilization + Rng.normal(0.0, Tolerances.UtilizationAbs), 0.0,
        1.0);

    ComputationalModule Module(Variant);
    Expected<ModuleThermalReport> Report =
        Module.solveSteadyState(SampleConditions, Load);
    if (!Report) {
      ++Result.NumFailedSolves;
      continue;
    }
    Junctions.push_back(Report->MaxJunctionTempC);
    Coolants.push_back(Report->CoolantHotTempC);
  }

  if (Junctions.empty())
    return Result;

  double Sum = 0.0, SumSq = 0.0;
  int OverJunction = 0;
  for (double Tj : Junctions) {
    Sum += Tj;
    SumSq += Tj * Tj;
    OverJunction += Tj > JunctionLimitC;
  }
  double N = static_cast<double>(Junctions.size());
  Result.MeanMaxJunctionC = Sum / N;
  Result.StdMaxJunctionC = std::sqrt(
      std::max(SumSq / N - Result.MeanMaxJunctionC * Result.MeanMaxJunctionC,
               0.0));
  Result.P95MaxJunctionC = percentile(Junctions, 0.95);
  Result.WorstMaxJunctionC =
      *std::max_element(Junctions.begin(), Junctions.end());
  Result.OverJunctionLimitFraction = OverJunction / N;

  double CoolantSum = 0.0;
  int OverCoolant = 0;
  for (double Oil : Coolants) {
    CoolantSum += Oil;
    OverCoolant += Oil > CoolantLimitC;
  }
  Result.MeanCoolantHotC = CoolantSum / N;
  Result.P95CoolantHotC = percentile(Coolants, 0.95);
  Result.WorstCoolantHotC =
      *std::max_element(Coolants.begin(), Coolants.end());
  Result.OverCoolantLimitFraction = OverCoolant / N;
  return Result;
}
