//===- tests/fpga_test.cpp - Unit tests for rcs_fpga ------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fpga/Device.h"
#include "fpga/PowerModel.h"
#include "fpga/Reliability.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace rcs;
using namespace rcs::fpga;

//===----------------------------------------------------------------------===//
// Device database
//===----------------------------------------------------------------------===//

namespace {

class AllModelsTest : public testing::TestWithParam<FpgaModel> {};

} // namespace

TEST_P(AllModelsTest, SpecFieldsArePlausible) {
  const FpgaSpec &Spec = getFpgaSpec(GetParam());
  EXPECT_FALSE(Spec.Name.empty());
  EXPECT_GT(Spec.LogicKCells, 0);
  EXPECT_GT(Spec.DspSlices, 0);
  EXPECT_GT(Spec.PackageSizeM, 0.03);
  EXPECT_LT(Spec.PackageSizeM, 0.06);
  EXPECT_GT(Spec.ThetaJcKPerW, 0.0);
  EXPECT_LT(Spec.ThetaJcKPerW, 0.5);
  EXPECT_GT(Spec.StaticPower25W, 0.0);
  EXPECT_GT(Spec.DynamicPowerMaxW, 0.0);
  EXPECT_GT(Spec.PeakGflops, 0.0);
  EXPECT_LT(Spec.ReliableJunctionTempC, Spec.MaxJunctionTempC);
}

INSTANTIATE_TEST_SUITE_P(Devices, AllModelsTest,
                         testing::Values(FpgaModel::XC6VLX240T,
                                         FpgaModel::XC7VX485T,
                                         FpgaModel::XCKU095,
                                         FpgaModel::XCVU9P,
                                         FpgaModel::UltraScale2),
                         [](const testing::TestParamInfo<FpgaModel> &Info) {
                           std::string Name =
                               getFpgaSpec(Info.param).Name.substr(0, 7);
                           for (char &C : Name)
                             if (!std::isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

TEST(DeviceTest, PackageSizesMatchPaper) {
  // The paper: SKAT FPGAs are 42.5 x 42.5 mm, SKAT+ FPGAs 45 x 45 mm.
  EXPECT_DOUBLE_EQ(getFpgaSpec(FpgaModel::XCKU095).PackageSizeM, 0.0425);
  EXPECT_DOUBLE_EQ(getFpgaSpec(FpgaModel::XCVU9P).PackageSizeM, 0.045);
}

TEST(DeviceTest, PerformanceGrowsAcrossGenerations) {
  double Previous = 0.0;
  for (FpgaModel Model :
       {FpgaModel::XC6VLX240T, FpgaModel::XC7VX485T, FpgaModel::XCKU095,
        FpgaModel::XCVU9P, FpgaModel::UltraScale2}) {
    double Peak = getFpgaSpec(Model).PeakGflops;
    EXPECT_GT(Peak, Previous);
    Previous = Peak;
  }
}

TEST(DeviceTest, UltraScalePlusIsTripleKintexUltraScale) {
  // Paper Section 4: UltraScale+ provides "a three time increase in
  // computational performance".
  double Ratio = getFpgaSpec(FpgaModel::XCVU9P).PeakGflops /
                 getFpgaSpec(FpgaModel::XCKU095).PeakGflops;
  EXPECT_NEAR(Ratio, 3.0, 0.05);
}

TEST(DeviceTest, NextGenerationChain) {
  EXPECT_EQ(nextGeneration(FpgaModel::XC6VLX240T), FpgaModel::XC7VX485T);
  EXPECT_EQ(nextGeneration(FpgaModel::XC7VX485T), FpgaModel::XCKU095);
  EXPECT_EQ(nextGeneration(FpgaModel::XCKU095), FpgaModel::XCVU9P);
  EXPECT_EQ(nextGeneration(FpgaModel::XCVU9P), FpgaModel::UltraScale2);
  EXPECT_EQ(nextGeneration(FpgaModel::UltraScale2), FpgaModel::UltraScale2);
}

TEST(DeviceTest, FamilyNames) {
  EXPECT_STREQ(familyName(FpgaFamily::Virtex6), "Virtex-6");
  EXPECT_STREQ(familyName(FpgaFamily::UltraScalePlus), "UltraScale+");
}

//===----------------------------------------------------------------------===//
// Power model
//===----------------------------------------------------------------------===//

TEST(PowerModelTest, StaticLeakageDoublesEvery25C) {
  FpgaPowerModel Model(getFpgaSpec(FpgaModel::XCKU095));
  double At25 = Model.staticPowerW(25.0);
  EXPECT_NEAR(Model.staticPowerW(50.0), 2.0 * At25, 1e-9);
  EXPECT_NEAR(Model.staticPowerW(75.0), 4.0 * At25, 1e-9);
  EXPECT_NEAR(Model.staticPowerW(0.0), 0.5 * At25, 1e-9);
}

TEST(PowerModelTest, DynamicPowerScalesLinearly) {
  FpgaPowerModel Model(getFpgaSpec(FpgaModel::XCKU095));
  WorkloadPoint Half{0.45, 1.0};
  WorkloadPoint Full{0.90, 1.0};
  EXPECT_NEAR(Model.dynamicPowerW(Full), 2.0 * Model.dynamicPowerW(Half),
              1e-9);
  WorkloadPoint SlowClock{0.90, 0.5};
  EXPECT_NEAR(Model.dynamicPowerW(SlowClock),
              0.5 * Model.dynamicPowerW(Full), 1e-9);
}

TEST(PowerModelTest, FixedPointSatisfiesBothEquations) {
  FpgaPowerModel Model(getFpgaSpec(FpgaModel::XC7VX485T));
  WorkloadPoint Load{0.9, 1.0};
  const double R = 0.9, TRef = 28.0;
  double Tj = Model.solveJunctionTempC(Load, R, TRef);
  double P = Model.totalPowerW(Load, Tj);
  EXPECT_NEAR(Tj, TRef + P * R, 1e-6);
  EXPECT_NEAR(Model.solvePowerW(Load, R, TRef), P, 1e-9);
}

TEST(PowerModelTest, JunctionRisesWithResistance) {
  FpgaPowerModel Model(getFpgaSpec(FpgaModel::XCKU095));
  WorkloadPoint Load{0.9, 1.0};
  EXPECT_LT(Model.solveJunctionTempC(Load, 0.2, 30.0),
            Model.solveJunctionTempC(Load, 0.6, 30.0));
}

TEST(PowerModelTest, ThermalRunawayIsFlagged) {
  FpgaPowerModel Model(getFpgaSpec(FpgaModel::XCKU095));
  WorkloadPoint Load{1.0, 1.0};
  // Absurd resistance: leakage feedback diverges; the solver saturates
  // at its ceiling far beyond MaxJunctionTempC.
  double Tj = Model.solveJunctionTempC(Load, 5.0, 40.0);
  EXPECT_GT(Tj, Model.spec().MaxJunctionTempC);
}

TEST(PowerModelTest, SkatOperatingPointMatchesPaper) {
  // Paper Section 3: 91 W per XCKU095 in operating mode at the SKAT
  // cooling point (junction in the mid-40s over ~28 C oil).
  FpgaPowerModel Model(getFpgaSpec(FpgaModel::XCKU095));
  WorkloadPoint Load{0.90, 1.0};
  double P = Model.solvePowerW(Load, 0.18, 28.0);
  EXPECT_NEAR(P, 91.0, 3.0);
}

TEST(PowerModelTest, IdleFabricDrawsLittle) {
  FpgaPowerModel Model(getFpgaSpec(FpgaModel::XCKU095));
  WorkloadPoint Idle{0.02, 0.5};
  double P = Model.solvePowerW(Idle, 0.2, 28.0);
  EXPECT_LT(P, 20.0);
}

//===----------------------------------------------------------------------===//
// Reliability (Arrhenius)
//===----------------------------------------------------------------------===//

TEST(ReliabilityTest, AccelerationIsOneAtReference) {
  EXPECT_NEAR(arrheniusAccelerationFactor(55.0, 55.0), 1.0, 1e-12);
}

TEST(ReliabilityTest, AccelerationGrowsWithTemperature) {
  double A65 = arrheniusAccelerationFactor(65.0, 55.0);
  double A85 = arrheniusAccelerationFactor(85.0, 55.0);
  EXPECT_GT(A65, 1.5);
  EXPECT_GT(A85, A65 * A65 * 0.5); // Strongly super-linear.
}

TEST(ReliabilityTest, RoughlyDoublesPerTenDegrees) {
  // At Ea = 0.7 eV around 60 C, a 10 C rise roughly doubles the rate.
  double Factor = arrheniusAccelerationFactor(70.0, 60.0);
  EXPECT_GT(Factor, 1.7);
  EXPECT_LT(Factor, 2.6);
}

TEST(ReliabilityTest, MttfInverseOfAcceleration) {
  ReliabilityModel Model;
  double MttfRef = mttfHours(Model.ReferenceJunctionTempC, Model);
  EXPECT_NEAR(MttfRef, Model.ReferenceMttfHours, 1e-6);
  double MttfHot = mttfHours(75.0, Model);
  EXPECT_NEAR(MttfHot * arrheniusAccelerationFactor(75.0, 55.0),
              Model.ReferenceMttfHours, 1.0);
}

TEST(ReliabilityTest, FitAndFailureScaling) {
  double FitCold = failureRateFit(45.0);
  double FitHot = failureRateFit(85.0);
  EXPECT_GT(FitHot, 5.0 * FitCold);
  // 1000 devices at the reference point: failures/year = count * 8766 /
  // MTTF.
  double PerYear = expectedFailuresPerYear(1000, 55.0);
  EXPECT_NEAR(PerYear, 1000.0 * 8766.0 / 2.0e6, 0.01);
}

TEST(ReliabilityTest, ImmersionVsAirLifetimeGap) {
  // SKAT junctions (~45 C) vs projected air-cooled UltraScale (~84 C):
  // the immersion machine's FPGAs last more than 10x longer.
  double Gap = mttfHours(45.0) / mttfHours(84.0);
  EXPECT_GT(Gap, 10.0);
}
