//===- tests/core_test.cpp - Regression tests pinning the paper's numbers ---===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// These tests pin the reproduced paper numbers (see EXPERIMENTS.md) so the
/// E1..E10 benches cannot silently drift as the models evolve.
///
//===----------------------------------------------------------------------===//

#include "core/Designs.h"
#include "core/DesignSpace.h"
#include "metrics/Metrics.h"

#include <gtest/gtest.h>

using namespace rcs;
using namespace rcs::core;
using namespace rcs::rcsystem;

namespace {

ModuleThermalReport solve(const ModuleConfig &Config) {
  ComputationalModule Module(Config);
  auto Report = Module.solveSteadyState(makeNominalConditions());
  EXPECT_TRUE(Report.hasValue()) << Report.message();
  return Report ? *Report : ModuleThermalReport();
}

} // namespace

//===----------------------------------------------------------------------===//
// E1/E2: air-cooled overheat anchors (paper Section 1)
//===----------------------------------------------------------------------===//

TEST(PaperAnchorsTest, Rigel2Overheat) {
  // Paper: +33.1 C over a 25 C ambient (-> 58.1 C) at 1255 W CM power.
  ModuleThermalReport Report = solve(makeRigel2Module());
  EXPECT_NEAR(Report.overheatC(25.0), 33.1, 1.5);
  EXPECT_NEAR(Report.ItPowerW + Report.PsuLossW, 1255.0, 40.0);
}

TEST(PaperAnchorsTest, TaygetaOverheat) {
  // Paper: +47.9 C (-> 72.9 C) at 1661 W CM power.
  ModuleThermalReport Report = solve(makeTaygetaModule());
  EXPECT_NEAR(Report.overheatC(25.0), 47.9, 1.5);
  EXPECT_NEAR(Report.ItPowerW + Report.PsuLossW, 1661.0, 40.0);
  // Above the paper's 65..70 C long-life band: the Taygeta problem.
  EXPECT_FALSE(Report.WithinReliableLimit);
}

//===----------------------------------------------------------------------===//
// E3: family scaling (paper Section 1)
//===----------------------------------------------------------------------===//

TEST(PaperAnchorsTest, FamilyStepsMatchPaperBands) {
  double TjV6 = solve(makeRigel2Module()).MaxJunctionTempC;
  double TjV7 = solve(makeTaygetaModule()).MaxJunctionTempC;
  double TjUs = solve(makeUltraScaleAirModule()).MaxJunctionTempC;
  // Virtex-6 -> Virtex-7: +11..15 C.
  EXPECT_GE(TjV7 - TjV6, 11.0);
  EXPECT_LE(TjV7 - TjV6, 15.5);
  // Virtex-7 -> UltraScale (air): +10..15 C more, into the 80..85 band.
  EXPECT_GE(TjUs - TjV7, 10.0);
  EXPECT_LE(TjUs - TjV7, 15.5);
  EXPECT_GE(TjUs, 80.0);
  EXPECT_LE(TjUs, 86.0);
}

//===----------------------------------------------------------------------===//
// E5: SKAT thermal anchors (paper Section 3)
//===----------------------------------------------------------------------===//

TEST(PaperAnchorsTest, SkatOperatingPoint) {
  ModuleThermalReport Report = solve(makeSkatModule());
  // "the power consumed by each FPGA in operating mode equals 91 W".
  ASSERT_FALSE(Report.Fpgas.empty());
  EXPECT_NEAR(Report.Fpgas.front().PowerW, 91.0, 2.5);
  // "8736 W for the whole CM" (FPGA heat).
  EXPECT_NEAR(Report.FpgaHeatW, 8736.0, 250.0);
  // "the temperature of the heat-transfer agent does not exceed 30 C".
  EXPECT_LE(Report.CoolantHotTempC, 30.0);
  // "the maximum FPGA temperature ... did not exceed 55 C".
  EXPECT_LE(Report.MaxJunctionTempC, 55.0);
  // Comfortably inside the long-life band, unlike the air designs.
  EXPECT_TRUE(Report.WithinReliableLimit);
}

TEST(PaperAnchorsTest, SkatModuleShape) {
  ModuleConfig Skat = makeSkatModule();
  EXPECT_EQ(Skat.NumCcbs, 12);       // "12 CCBs with a power up to 800 W".
  EXPECT_EQ(Skat.HeightU, 3);        // "3U height".
  EXPECT_EQ(Skat.NumPsus, 3);        // "three power supply units".
  EXPECT_EQ(Skat.Board.NumComputeFpgas, 8);
  // Per-CCB power below the 800 W budget.
  ModuleThermalReport Report = solve(Skat);
  double PerBoard = (Report.FpgaHeatW + Report.MiscHeatW) / 12.0;
  EXPECT_LE(PerBoard, 800.0);
  EXPECT_GE(PerBoard, 600.0);
}

//===----------------------------------------------------------------------===//
// E6: generation gains (paper Section 3)
//===----------------------------------------------------------------------===//

TEST(PaperAnchorsTest, SkatVersusTaygetaGains) {
  ComputationalModule Taygeta(makeTaygetaModule());
  ComputationalModule Skat(makeSkatModule());
  // "The performance of a next-generation SKAT CM is increased in 8.7
  // times in comparison with the Taygeta CM."
  EXPECT_NEAR(Skat.peakGflops() / Taygeta.peakGflops(), 8.7, 0.1);
  // "more than triple increasing of the system packing density".
  EXPECT_GE(Skat.boardsPerU() / Taygeta.boardsPerU(), 3.0);
}

TEST(PaperAnchorsTest, EfficiencyMetricsFavorImmersion) {
  ComputationalModule Taygeta(makeTaygetaModule());
  ComputationalModule Skat(makeSkatModule());
  auto Conditions = makeNominalConditions();
  auto TaygetaReport = Taygeta.solveSteadyState(Conditions);
  auto SkatReport = Skat.solveSteadyState(Conditions);
  ASSERT_TRUE(TaygetaReport.hasValue());
  ASSERT_TRUE(SkatReport.hasValue());
  auto TaygetaEff =
      metrics::computeModuleEfficiency(Taygeta, *TaygetaReport);
  auto SkatEff = metrics::computeModuleEfficiency(Skat, *SkatReport);
  EXPECT_GT(SkatEff.GflopsPerWatt, 1.3 * TaygetaEff.GflopsPerWatt);
  auto Gain = metrics::compareGenerations(TaygetaEff, SkatEff);
  EXPECT_NEAR(Gain.PerformanceRatio, 8.7, 0.1);
  EXPECT_GE(Gain.PackingDensityRatio, 3.0);
}

//===----------------------------------------------------------------------===//
// E8: SKAT+ projection (paper Section 4)
//===----------------------------------------------------------------------===//

TEST(PaperAnchorsTest, SkatPlusTriplesPerformance) {
  ComputationalModule Skat(makeSkatModule());
  ComputationalModule SkatPlus(makeSkatPlusModule());
  double Ratio = SkatPlus.peakGflops() / Skat.peakGflops();
  // "a three time increase in computational performance ... the size of
  // the computer system will still remain unchanged".
  EXPECT_NEAR(Ratio, 3.0, 0.1);
  EXPECT_EQ(makeSkatPlusModule().HeightU, makeSkatModule().HeightU);
}

TEST(PaperAnchorsTest, NaiveSkatPlusExceedsSkatEnvelope) {
  // Without the Section 4 modifications, the UltraScale+ module leaves
  // the SKAT thermal envelope (coolant > 30 C, junctions above the SKAT
  // measured maximum); the modified design recovers most of it.
  ModuleThermalReport Naive = solve(makeSkatPlusNaiveModule());
  ModuleThermalReport Modified = solve(makeSkatPlusModule());
  EXPECT_GT(Naive.CoolantHotTempC, 30.5);
  EXPECT_GT(Naive.MaxJunctionTempC, Modified.MaxJunctionTempC + 3.0);
  EXPECT_LE(Modified.MaxJunctionTempC, 50.0);
}

//===----------------------------------------------------------------------===//
// E9: rack performance (paper Section 5)
//===----------------------------------------------------------------------===//

TEST(PaperAnchorsTest, RackAbovePetaflops) {
  Rack TheRack(makeSkatRack());
  EXPECT_GT(TheRack.peakPflops(), 1.0);
  EXPECT_LT(TheRack.peakPflops(), 1.3); // Not wildly over either.
}

//===----------------------------------------------------------------------===//
// Design-space tools
//===----------------------------------------------------------------------===//

TEST(DesignSpaceTest, SinkSweepSortedAndNonEmpty) {
  SinkSweepRanges Ranges;
  Ranges.PinHeightsM = {0.008, 0.012};
  Ranges.PitchesM = {0.004, 0.005};
  Ranges.PinDiametersM = {0.0015};
  auto Candidates = sweepImmersionSinks(makeSkatModule(),
                                        makeNominalConditions(), Ranges);
  ASSERT_GE(Candidates.size(), 4u);
  for (size_t I = 1; I < Candidates.size(); ++I)
    EXPECT_LE(Candidates[I - 1].Score, Candidates[I].Score);
  // Taller pins at equal pitch give lower thermal resistance.
  double RTall = 0.0, RShort = 0.0;
  for (const auto &Candidate : Candidates) {
    if (Candidate.Geometry.PitchM != 0.004)
      continue;
    if (Candidate.Geometry.PinHeightM == 0.012)
      RTall = Candidate.ResistanceKPerW;
    if (Candidate.Geometry.PinHeightM == 0.008)
      RShort = Candidate.ResistanceKPerW;
  }
  EXPECT_GT(RShort, RTall);
}

TEST(DesignSpaceTest, PumpSweepTradesPowerForTemperature) {
  auto Candidates =
      sweepOilPumps(makeSkatModule(), makeNominalConditions(),
                    {1.0e-3, 2.2e-3, 4.0e-3}, {6.0e4});
  ASSERT_EQ(Candidates.size(), 3u);
  // Find entries by rated flow.
  double TjSmall = 0.0, TjLarge = 0.0, PowerSmall = 0.0, PowerLarge = 0.0;
  for (const auto &Candidate : Candidates) {
    if (Candidate.RatedFlowM3PerS == 1.0e-3) {
      TjSmall = Candidate.MaxJunctionTempC;
      PowerSmall = Candidate.PumpElectricalW;
    }
    if (Candidate.RatedFlowM3PerS == 4.0e-3) {
      TjLarge = Candidate.MaxJunctionTempC;
      PowerLarge = Candidate.PumpElectricalW;
    }
  }
  EXPECT_GT(TjSmall, TjLarge);       // Bigger pump cools better...
  EXPECT_GT(PowerLarge, PowerSmall); // ...but burns more power.
}

TEST(DesignSpaceTest, WaterSetpointSearch) {
  auto Setpoint = maxWaterSetpointForJunctionLimit(
      makeSkatModule(), makeNominalConditions(), /*JunctionLimitC=*/55.0);
  ASSERT_TRUE(Setpoint.hasValue()) << Setpoint.message();
  // SKAT has headroom: warmer-than-18 C water still holds 55 C.
  EXPECT_GT(*Setpoint, 20.0);
  EXPECT_LE(*Setpoint, 45.0);

  // An impossible limit errors out.
  auto Impossible = maxWaterSetpointForJunctionLimit(
      makeSkatModule(), makeNominalConditions(), /*JunctionLimitC=*/20.0);
  EXPECT_FALSE(Impossible.hasValue());
}

//===----------------------------------------------------------------------===//
// Tolerance analysis (A4)
//===----------------------------------------------------------------------===//

#include "core/Uncertainty.h"

TEST(UncertaintyTest, DeterministicForFixedSeed) {
  ToleranceSpec Tolerances;
  auto A = analyzeModuleTolerances(makeSkatModule(),
                                   makeNominalConditions(), Tolerances, 50,
                                   7);
  auto B = analyzeModuleTolerances(makeSkatModule(),
                                   makeNominalConditions(), Tolerances, 50,
                                   7);
  EXPECT_DOUBLE_EQ(A.MeanMaxJunctionC, B.MeanMaxJunctionC);
  EXPECT_DOUBLE_EQ(A.P95MaxJunctionC, B.P95MaxJunctionC);
}

TEST(UncertaintyTest, StatisticsAreOrdered) {
  ToleranceSpec Tolerances;
  auto Result = analyzeModuleTolerances(
      makeSkatModule(), makeNominalConditions(), Tolerances, 100, 11);
  EXPECT_EQ(Result.NumFailedSolves, 0);
  EXPECT_LE(Result.MeanMaxJunctionC, Result.P95MaxJunctionC);
  EXPECT_LE(Result.P95MaxJunctionC, Result.WorstMaxJunctionC);
  EXPECT_LE(Result.MeanCoolantHotC, Result.P95CoolantHotC);
  EXPECT_GT(Result.StdMaxJunctionC, 0.0);
}

TEST(UncertaintyTest, ZeroToleranceCollapsesToNominal) {
  ToleranceSpec Zero;
  Zero.TurbulatorRel = Zero.PinHeightRel = Zero.PumpFlowRel = 0.0;
  Zero.PumpHeadRel = Zero.HxUaRel = Zero.BathAreaRel = 0.0;
  Zero.MiscPowerRel = 0.0;
  Zero.WaterInletAbsC = 0.0;
  Zero.UtilizationAbs = 0.0;
  auto Result = analyzeModuleTolerances(
      makeSkatModule(), makeNominalConditions(), Zero, 20, 3);
  EXPECT_NEAR(Result.StdMaxJunctionC, 0.0, 1e-9);
  auto Nominal = ComputationalModule(makeSkatModule())
                     .solveSteadyState(makeNominalConditions());
  ASSERT_TRUE(Nominal.hasValue());
  EXPECT_NEAR(Result.MeanMaxJunctionC, Nominal->MaxJunctionTempC, 1e-6);
}

TEST(UncertaintyTest, SkatJunctionMarginRobust) {
  ToleranceSpec Tolerances;
  auto Result = analyzeModuleTolerances(
      makeSkatModule(), makeNominalConditions(), Tolerances, 200, 2018);
  EXPECT_DOUBLE_EQ(Result.OverJunctionLimitFraction, 0.0);
  EXPECT_LT(Result.WorstMaxJunctionC, 55.0);
}

TEST(UncertaintyTest, WiderTolerancesWidenSpread) {
  ToleranceSpec Tight;
  ToleranceSpec Loose;
  Loose.PumpFlowRel = 0.2;
  Loose.HxUaRel = 0.3;
  Loose.BathAreaRel = 0.2;
  auto TightResult = analyzeModuleTolerances(
      makeSkatModule(), makeNominalConditions(), Tight, 150, 5);
  auto LooseResult = analyzeModuleTolerances(
      makeSkatModule(), makeNominalConditions(), Loose, 150, 5);
  EXPECT_GT(LooseResult.StdMaxJunctionC, TightResult.StdMaxJunctionC);
}
