//===- tests/system_test.cpp - Unit tests for rcs_system --------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "system/Board.h"
#include "system/Chiller.h"
#include "system/Cooling.h"
#include "system/Module.h"
#include "system/Monitoring.h"
#include "system/PowerSupply.h"
#include "system/Rack.h"

#include "core/Designs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

using namespace rcs;
using namespace rcs::rcsystem;

//===----------------------------------------------------------------------===//
// Ccb
//===----------------------------------------------------------------------===//

TEST(CcbTest, CountsWithSeparateController) {
  CcbConfig Config;
  Config.Model = fpga::FpgaModel::XCKU095;
  Config.NumComputeFpgas = 8;
  Config.SeparateControllerFpga = true;
  Ccb Board(Config);
  EXPECT_EQ(Board.computeFpgaCount(), 8);
  EXPECT_EQ(Board.totalFpgaCount(), 9);
  EXPECT_EQ(Board.sitesAcross(), 5);
}

TEST(CcbTest, CountsWithoutSeparateController) {
  CcbConfig Config;
  Config.Model = fpga::FpgaModel::XCVU9P;
  Config.SeparateControllerFpga = false;
  Ccb Board(Config);
  EXPECT_EQ(Board.totalFpgaCount(), 8);
  EXPECT_EQ(Board.sitesAcross(), 4);
}

TEST(CcbTest, RackFitReproducesSection4Constraint) {
  // 42.5 mm UltraScale with a controller fits; 45 mm UltraScale+ with a
  // controller does not; dropping the controller restores the fit.
  CcbConfig Ku;
  Ku.Model = fpga::FpgaModel::XCKU095;
  Ku.SeparateControllerFpga = true;
  EXPECT_TRUE(Ccb(Ku).fitsStandard19InchRack());

  CcbConfig VuWith;
  VuWith.Model = fpga::FpgaModel::XCVU9P;
  VuWith.SeparateControllerFpga = true;
  EXPECT_FALSE(Ccb(VuWith).fitsStandard19InchRack());

  CcbConfig VuWithout = VuWith;
  VuWithout.SeparateControllerFpga = false;
  EXPECT_TRUE(Ccb(VuWithout).fitsStandard19InchRack());
}

TEST(CcbTest, ControllerOverheadReducesPeak) {
  CcbConfig With;
  With.Model = fpga::FpgaModel::XCVU9P;
  With.SeparateControllerFpga = true;
  CcbConfig Without = With;
  Without.SeparateControllerFpga = false;
  double Full = Ccb(With).peakGflops();
  double Shared = Ccb(Without).peakGflops();
  EXPECT_LT(Shared, Full);
  // ... but only by "some percent" (paper Section 4).
  EXPECT_GT(Shared, 0.99 * Full * (1.0 - 0.06));
}

TEST(CcbTest, BoardPowerComposition) {
  CcbConfig Config;
  Config.Model = fpga::FpgaModel::XCKU095;
  Ccb Board(Config);
  fpga::WorkloadPoint Load{0.9, 1.0};
  double Chip = Board.computeFpgaPowerW(Load, 45.0);
  double Total = Board.boardPowerW(Load, 45.0);
  EXPECT_NEAR(Total, 8 * Chip + Board.nonFpgaPowerW(Load, 45.0), 1e-9);
  EXPECT_GT(Board.nonFpgaPowerW(Load, 45.0), Config.MiscPowerW);
}

//===----------------------------------------------------------------------===//
// Power supply
//===----------------------------------------------------------------------===//

TEST(PsuTest, EfficiencyCurvePeaksMidLoad) {
  PowerSupplyUnit Psu = PowerSupplyUnit::makeSkatImmersionPsu();
  EXPECT_LT(Psu.efficiencyAt(100.0), Psu.efficiencyAt(2500.0));
  EXPECT_GT(Psu.efficiencyAt(3000.0), Psu.efficiencyAt(4000.0));
  EXPECT_TRUE(Psu.isImmersible());
  EXPECT_DOUBLE_EQ(Psu.ratedPowerW(), 4000.0);
}

TEST(PsuTest, LossAndInputConsistent) {
  PowerSupplyUnit Psu = PowerSupplyUnit::makeSkatImmersionPsu();
  double Load = 3000.0;
  double Loss = Psu.lossW(Load);
  EXPECT_GT(Loss, 0.0);
  EXPECT_NEAR(Psu.inputPowerW(Load), Load + Loss, 1e-9);
  EXPECT_NEAR(Load / Psu.inputPowerW(Load), Psu.efficiencyAt(Load), 1e-9);
  EXPECT_DOUBLE_EQ(Psu.lossW(0.0), 0.0);
}

//===----------------------------------------------------------------------===//
// Chiller
//===----------------------------------------------------------------------===//

TEST(ChillerTest, CopFallsWithAmbient) {
  Chiller Plant = Chiller::makeSkatRackChiller();
  EXPECT_GT(Plant.cop(15.0), Plant.cop(35.0));
  EXPECT_GT(Plant.cop(35.0), 1.0);
}

TEST(ChillerTest, ElectricalPowerFromCop) {
  Chiller Plant = Chiller::makeSkatRackChiller();
  double Duty = 100e3;
  EXPECT_NEAR(Plant.electricalPowerW(Duty, 25.0),
              Duty / Plant.cop(25.0), 1e-6);
  EXPECT_TRUE(Plant.isOverloaded(200e3));
  EXPECT_FALSE(Plant.isOverloaded(50e3));
}

TEST(ChillerTest, WarmerSetpointImprovesCop) {
  Chiller Cold("c", 10.0, 130e3);
  Chiller Warm("w", 25.0, 130e3);
  EXPECT_GT(Warm.cop(30.0), Cold.cop(30.0));
}

//===----------------------------------------------------------------------===//
// Cooling solvers: physics invariants
//===----------------------------------------------------------------------===//

namespace {

ExternalConditions nominal() { return core::makeNominalConditions(); }

} // namespace

TEST(AirSolverTest, EnergyBalanceInAirStream) {
  ComputationalModule Module(core::makeTaygetaModule());
  auto Report = Module.solveSteadyState(nominal());
  ASSERT_TRUE(Report.hasValue()) << Report.message();
  // Air rise times capacity equals total heat (within property lookup
  // tolerance).
  auto Air = fluids::makeAir();
  double RhoCp = Air->volumetricHeatCapacityJPerM3K(30.0);
  double ExpectedRise =
      Report->TotalHeatW / (RhoCp * Report->CoolantFlowM3PerS);
  EXPECT_NEAR(Report->CoolantHotTempC - Report->CoolantColdTempC,
              ExpectedRise, 0.05 * ExpectedRise);
}

TEST(AirSolverTest, BackRowRunsHotter) {
  ComputationalModule Module(core::makeTaygetaModule());
  auto Report = Module.solveSteadyState(nominal());
  ASSERT_TRUE(Report.hasValue());
  ASSERT_GE(Report->Fpgas.size(), 8u);
  // Within one board, the last FPGA (back row) is hotter than the first.
  EXPECT_GT(Report->Fpgas[7].JunctionTempC,
            Report->Fpgas[0].JunctionTempC);
}

TEST(AirSolverTest, MoreAirflowCoolsChips) {
  ModuleConfig Config = core::makeTaygetaModule();
  ComputationalModule Base(Config);
  auto BaseReport = Base.solveSteadyState(nominal());
  ASSERT_TRUE(BaseReport.hasValue());
  Config.Air.AirflowM3PerS *= 1.5;
  ComputationalModule Boosted(Config);
  auto BoostedReport = Boosted.solveSteadyState(nominal());
  ASSERT_TRUE(BoostedReport.hasValue());
  EXPECT_LT(BoostedReport->MaxJunctionTempC, BaseReport->MaxJunctionTempC);
}

TEST(AirSolverTest, RejectsZeroAirflow) {
  ModuleConfig Config = core::makeTaygetaModule();
  Config.Air.AirflowM3PerS = 0.0;
  ComputationalModule Module(Config);
  auto Report = Module.solveSteadyState(nominal());
  EXPECT_FALSE(Report.hasValue());
}

TEST(ImmersionSolverTest, WaterSideEnergyBalance) {
  ComputationalModule Module(core::makeSkatModule());
  auto Report = Module.solveSteadyState(nominal());
  ASSERT_TRUE(Report.hasValue()) << Report.message();
  auto Water = fluids::makeWater();
  double CWater =
      nominal().WaterFlowM3PerS * Water->densityKgPerM3(22.0) *
      Water->specificHeatJPerKgK(22.0);
  double WaterGain =
      CWater * (Report->WaterOutletTempC - nominal().WaterInletTempC);
  // All module heat crosses the HX into the water.
  EXPECT_NEAR(WaterGain, Report->TotalHeatW, 0.03 * Report->TotalHeatW);
  EXPECT_NEAR(Report->HxDutyW, Report->TotalHeatW,
              0.03 * Report->TotalHeatW);
}

TEST(ImmersionSolverTest, OilTemperaturesOrdered) {
  ComputationalModule Module(core::makeSkatModule());
  auto Report = Module.solveSteadyState(nominal());
  ASSERT_TRUE(Report.hasValue());
  EXPECT_GT(Report->CoolantHotTempC, Report->CoolantColdTempC);
  EXPECT_GT(Report->CoolantColdTempC, nominal().WaterInletTempC);
  EXPECT_GT(Report->MaxJunctionTempC, Report->CoolantHotTempC);
}

TEST(ImmersionSolverTest, SeriesDistributionBuildsGradient) {
  // First-generation designs circulate boards in series and suffer
  // "considerable thermal gradients" (paper Section 2).
  ModuleConfig Parallel = core::makeSkatModule();
  ModuleConfig Series = core::makeSkatModule();
  Series.Immersion.Distribution =
      ImmersionCoolingConfig::OilDistribution::SeriesAlongBoards;
  auto ParallelReport =
      ComputationalModule(Parallel).solveSteadyState(nominal());
  auto SeriesReport =
      ComputationalModule(Series).solveSteadyState(nominal());
  ASSERT_TRUE(ParallelReport.hasValue());
  ASSERT_TRUE(SeriesReport.hasValue());
  auto spread = [](const ModuleThermalReport &R) {
    double Lo = 1e9, Hi = -1e9;
    for (double T : R.PerBoardCoolantTempC) {
      Lo = std::min(Lo, T);
      Hi = std::max(Hi, T);
    }
    return Hi - Lo;
  };
  EXPECT_LT(spread(*ParallelReport), 0.5);
  EXPECT_GT(spread(*SeriesReport), 4.0 * spread(*ParallelReport));
  EXPECT_GT(SeriesReport->MaxJunctionTempC,
            ParallelReport->MaxJunctionTempC);
  // Each board downstream runs on warmer oil than the one before it.
  const std::vector<double> &Oil = SeriesReport->PerBoardCoolantTempC;
  for (size_t B = 1; B < Oil.size(); ++B)
    EXPECT_GT(Oil[B], Oil[B - 1]) << "board " << B;
}

TEST(ImmersionSolverTest, TimWashoutRaisesJunctions) {
  ModuleConfig Fresh = core::makeSkatModule();
  Fresh.Immersion.Tim = ImmersionCoolingConfig::TimKind::SiliconeGrease;
  ModuleConfig Aged = Fresh;
  Aged.Immersion.TimExposureHours = 10000.0;
  auto FreshReport = ComputationalModule(Fresh).solveSteadyState(nominal());
  auto AgedReport = ComputationalModule(Aged).solveSteadyState(nominal());
  ASSERT_TRUE(FreshReport.hasValue());
  ASSERT_TRUE(AgedReport.hasValue());
  EXPECT_GT(AgedReport->MaxJunctionTempC,
            FreshReport->MaxJunctionTempC + 1.0);

  // The SKAT wash-out-proof interface does not age.
  ModuleConfig SkatAged = core::makeSkatModule();
  SkatAged.Immersion.TimExposureHours = 10000.0;
  auto SkatReport =
      ComputationalModule(SkatAged).solveSteadyState(nominal());
  auto SkatBase =
      ComputationalModule(core::makeSkatModule()).solveSteadyState(nominal());
  ASSERT_TRUE(SkatReport.hasValue());
  ASSERT_TRUE(SkatBase.hasValue());
  EXPECT_NEAR(SkatReport->MaxJunctionTempC, SkatBase->MaxJunctionTempC,
              0.05);
}

TEST(ImmersionSolverTest, BetterCoolantRunsCooler) {
  ModuleConfig White = core::makeSkatModule();
  White.Immersion.CoolantKind =
      ImmersionCoolingConfig::Coolant::WhiteMineralOil;
  auto WhiteReport = ComputationalModule(White).solveSteadyState(nominal());
  auto SkatReport =
      ComputationalModule(core::makeSkatModule()).solveSteadyState(nominal());
  ASSERT_TRUE(WhiteReport.hasValue());
  ASSERT_TRUE(SkatReport.hasValue());
  EXPECT_LT(SkatReport->MaxJunctionTempC, WhiteReport->MaxJunctionTempC);
}

TEST(ImmersionSolverTest, ColderWaterCoolsEverything) {
  ComputationalModule Module(core::makeSkatModule());
  ExternalConditions Warm = nominal();
  Warm.WaterInletTempC = 24.0;
  auto Cold = Module.solveSteadyState(nominal());
  auto Warmer = Module.solveSteadyState(Warm);
  ASSERT_TRUE(Cold.hasValue());
  ASSERT_TRUE(Warmer.hasValue());
  EXPECT_GT(Warmer->MaxJunctionTempC, Cold->MaxJunctionTempC + 3.0);
}

namespace {

/// Every scalar of \p R plus the first and last FPGA states, at %.17g.
std::string fingerprint(const ModuleThermalReport &R) {
  std::string Out;
  auto Add = [&](double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.17g ", V);
    Out += Buf;
  };
  for (double V : {R.FpgaHeatW, R.MiscHeatW, R.PsuLossW, R.PumpPowerW,
                   R.FanPowerW, R.TotalHeatW, R.ItPowerW, R.MaxJunctionTempC,
                   R.MeanJunctionTempC, R.CoolantColdTempC, R.CoolantHotTempC,
                   R.WaterOutletTempC, R.CoolantFlowM3PerS,
                   R.ApproachVelocityMPerS, R.HxDutyW, R.HxEffectiveness})
    Add(V);
  for (const FpgaThermalState *S : {&R.Fpgas.front(), &R.Fpgas.back()})
    for (double V : {S->JunctionTempC, S->PowerW, S->LocalCoolantTempC,
                     S->TotalResistanceKPerW})
      Add(V);
  return Out;
}

} // namespace

TEST(ImmersionSolverTest, ReportsKeepTheirRecordedBits) {
  // Recorded from the per-board fixed point that solved all twelve
  // boards of a module on every sweep; carrying one state per board
  // class must not move a bit.
  ExternalConditions Warm = nominal();
  Warm.WaterInletTempC = 24.0;
  ModuleConfig Series = core::makeSkatModule();
  Series.Immersion.Distribution =
      ImmersionCoolingConfig::OilDistribution::SeriesAlongBoards;
  struct Case {
    const char *Name;
    ModuleConfig Config;
    ExternalConditions Conditions;
    double Utilization;
    const char *Want;
  };
  const Case Cases[] = {
      {"skat nominal", core::makeSkatModule(), nominal(), -1.0,
       "8765.3887075568146 540 398.01379875342866 231.20419607463811 "
       "0 9830.5648137772805 9305.3887075568146 44.511715541065527 "
       "44.511715541065534 27.541092225920565 29.523672813589833 "
       "25.855030991619685 0.002721545086192813 0.064798692528400301 "
       "9830.5648134664953 0.68164300728464522 44.511715541065527 "
       "91.306132370383509 28.47942503597552 0.1755883212761771 "
       "44.511715541065527 91.306132370383509 28.47942503597552 "
       "0.1755883212761771 "},
      {"skat-plus nominal", core::makeSkatPlusModule(), nominal(), -1.0,
       "11808.563798731915 600 653.08230519641722 762.08175741514378 "
       "0 13823.727860950439 12408.563798731915 47.524214304213388 "
       "47.524214304213388 28.967772555032312 30.410406445386748 "
       "29.04573468820405 0.0052486876052141038 0.1249687525050977 "
       "13823.727860601985 0.89003810929254612 47.524214304213388 "
       "123.00587290345749 29.615246769176856 0.14559441035090476 "
       "47.524214304213388 123.00587290345749 29.615246769176856 "
       "0.14559441035090476 "},
      {"skat 24 C 0.9", core::makeSkatModule(), Warm, 0.9,
       "8966.1909244097405 540 413.52625660645384 231.20419607463811 "
       "0 10046.879488541053 9506.1909244097405 51.176307629016698 "
       "51.176307629016712 33.77335657639361 35.781730270962086 "
       "32.044117837555369 0.002721545086192813 0.064798692528400301 "
       "10046.879488277829 0.68276200970084611 51.176307629016698 "
       "93.397822129268135 34.723501534828856 0.17615834844050288 "
       "51.176307629016698 93.397822129268135 34.723501534828856 "
       "0.17615834844050288 "},
      {"skat-plus 24 C 0.9", core::makeSkatPlusModule(), Warm, 0.9,
       "12147.973287133673 600 670.94596248072014 762.08175741514378 "
       "0 14181.001006700262 12747.973287133673 54.41053118973273 "
       "54.410531189732744 35.2802280390463 36.747022623594532 "
       "35.354136703155639 0.0052486876052141038 0.1249687525050977 "
       "14181.001006407956 0.89072852841253436 54.41053118973273 "
       "126.54138840764242 35.93951359204268 0.14596819135754552 "
       "54.41053118973273 126.54138840764242 35.93951359204268 "
       "0.14596819135754552 "},
      {"skat series nominal", Series, nominal(), -1.0,
       "8765.499061778095 540 398.02224095578572 231.20419607463811 0 "
       "9830.6836102008201 9305.499061778095 45.42405107180727 "
       "44.511199757449823 27.541207739206627 29.523811956772967 "
       "25.855125914913071 0.002721545086192813 0.064798692528400301 "
       "9830.683609889953 0.6816430139938483 43.600803640826136 "
       "91.04910175822414 27.619194780382887 0.17552736437668826 "
       "45.42405107180727 91.570154386413563 29.339487929610037 "
       "0.17565289968139897 "},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    fpga::WorkloadPoint Load = C.Config.Load;
    if (C.Utilization >= 0.0)
      Load.Utilization = C.Utilization;
    auto Report =
        ComputationalModule(C.Config).solveSteadyState(C.Conditions, Load);
    ASSERT_TRUE(Report.hasValue()) << Report.message();
    EXPECT_EQ(fingerprint(*Report), C.Want);
  }
}

TEST(ImmersionSolverTest, ParallelBoardsCarryOneState) {
  // Boards fed in parallel see identical oil: every board and every FPGA
  // reports the same state, to the bit.
  auto Report = ComputationalModule(core::makeSkatModule())
                    .solveSteadyState(nominal());
  ASSERT_TRUE(Report.hasValue());
  ASSERT_EQ(Report->PerBoardCoolantTempC.size(), 12u);
  for (double T : Report->PerBoardCoolantTempC)
    EXPECT_EQ(T, Report->PerBoardCoolantTempC.front());
  const FpgaThermalState &First = Report->Fpgas.front();
  for (const FpgaThermalState &S : Report->Fpgas) {
    EXPECT_EQ(S.JunctionTempC, First.JunctionTempC);
    EXPECT_EQ(S.PowerW, First.PowerW);
    EXPECT_EQ(S.LocalCoolantTempC, First.LocalCoolantTempC);
    EXPECT_EQ(S.TotalResistanceKPerW, First.TotalResistanceKPerW);
  }
  EXPECT_EQ(Report->MaxJunctionTempC, First.JunctionTempC);
}

TEST(ColdPlateSolverTest, SolvesAndOrdersTemperatures) {
  ModuleConfig Config = core::makeSkatModule();
  Config.Cooling = CoolingKind::ColdPlate;
  Config.ColdPlate.WaterFlowM3PerS = 1.2e-3;
  ComputationalModule Module(Config);
  auto Report = Module.solveSteadyState(nominal());
  ASSERT_TRUE(Report.hasValue()) << Report.message();
  EXPECT_GT(Report->MaxJunctionTempC, nominal().WaterInletTempC);
  // Plates along a board: later chips see warmer water.
  ASSERT_GE(Report->Fpgas.size(), 8u);
  EXPECT_GT(Report->Fpgas[7].LocalCoolantTempC,
            Report->Fpgas[0].LocalCoolantTempC);
  EXPECT_GT(Report->WaterOutletTempC, nominal().WaterInletTempC);
}

TEST(ModuleTest, MetricsAndDispatch) {
  ComputationalModule Skat(core::makeSkatModule());
  EXPECT_EQ(Skat.computeFpgaCount(), 96);
  EXPECT_NEAR(Skat.boardsPerU(), 4.0, 1e-9);
  EXPECT_NEAR(Skat.peakGflops(), 96 * 870.0, 1.0);
  EXPECT_NEAR(Skat.gflopsPerU(), 96 * 870.0 / 3.0, 1.0);
}

//===----------------------------------------------------------------------===//
// Monitoring
//===----------------------------------------------------------------------===//

TEST(MonitoringTest, ThresholdSensorDirections) {
  ThresholdSensor Temp("t", 35.0, 45.0, /*HighIsBad=*/true);
  EXPECT_EQ(Temp.classify(30.0), AlarmLevel::Normal);
  EXPECT_EQ(Temp.classify(40.0), AlarmLevel::Warning);
  EXPECT_EQ(Temp.classify(50.0), AlarmLevel::Critical);

  ThresholdSensor Flow("f", 0.7, 0.3, /*HighIsBad=*/false);
  EXPECT_EQ(Flow.classify(1.0), AlarmLevel::Normal);
  EXPECT_EQ(Flow.classify(0.5), AlarmLevel::Warning);
  EXPECT_EQ(Flow.classify(0.1), AlarmLevel::Critical);
}

TEST(MonitoringTest, ThresholdBoundariesAreClosed) {
  // A reading exactly at a threshold is already in the band that
  // threshold guards, in both directions.
  ThresholdSensor Temp("t", 35.0, 45.0, /*HighIsBad=*/true);
  EXPECT_EQ(Temp.classify(35.0), AlarmLevel::Warning);
  EXPECT_EQ(Temp.classify(45.0), AlarmLevel::Critical);
  EXPECT_EQ(Temp.classify(34.999), AlarmLevel::Normal);
  EXPECT_EQ(Temp.classify(44.999), AlarmLevel::Warning);

  ThresholdSensor Flow("f", 0.7, 0.3, /*HighIsBad=*/false);
  EXPECT_EQ(Flow.classify(0.7), AlarmLevel::Warning);
  EXPECT_EQ(Flow.classify(0.3), AlarmLevel::Critical);
  EXPECT_EQ(Flow.classify(0.701), AlarmLevel::Normal);
  EXPECT_EQ(Flow.classify(0.301), AlarmLevel::Warning);
}

TEST(MonitoringTest, NonFiniteReadingsClassifyCritical) {
  // Fail safe: a NaN or infinite reading is a failed sensor, and a
  // failed protection sensor must trip, not stay silent.
  double NaN = std::numeric_limits<double>::quiet_NaN();
  double Inf = std::numeric_limits<double>::infinity();
  ThresholdSensor Temp("t", 35.0, 45.0, /*HighIsBad=*/true);
  EXPECT_EQ(Temp.classify(NaN), AlarmLevel::Critical);
  EXPECT_EQ(Temp.classify(Inf), AlarmLevel::Critical);
  EXPECT_EQ(Temp.classify(-Inf), AlarmLevel::Critical);
  ThresholdSensor Flow("f", 0.7, 0.3, /*HighIsBad=*/false);
  EXPECT_EQ(Flow.classify(NaN), AlarmLevel::Critical);
}

TEST(MonitoringTest, HealthySkatModuleIsNormal) {
  ComputationalModule Module(core::makeSkatModule());
  auto Report = Module.solveSteadyState(nominal());
  ASSERT_TRUE(Report.hasValue());
  ControlSystem Control;
  MonitoringReport Monitor = Control.evaluate(*Report);
  EXPECT_EQ(Monitor.Worst, AlarmLevel::Normal);
  EXPECT_EQ(Monitor.Action, ControlAction::None);
  EXPECT_EQ(Monitor.Readings.size(), 3u);
}

TEST(MonitoringTest, ActionsEscalate) {
  ControlSystem Control;
  // Warm coolant only: push the pump.
  EXPECT_EQ(Control.evaluateRaw(38.0, 55.0, 2.0e-3).Action,
            ControlAction::RaisePumpSpeed);
  // Warm junction: shed clocks.
  EXPECT_EQ(Control.evaluateRaw(30.0, 75.0, 2.0e-3).Action,
            ControlAction::ReduceClock);
  // Critical anything: shutdown.
  EXPECT_EQ(Control.evaluateRaw(50.0, 55.0, 2.0e-3).Action,
            ControlAction::Shutdown);
  EXPECT_EQ(Control.evaluateRaw(30.0, 90.0, 2.0e-3).Action,
            ControlAction::Shutdown);
  // Lost flow: critical.
  EXPECT_EQ(Control.evaluateRaw(30.0, 55.0, 1.0e-4).Action,
            ControlAction::Shutdown);
}

TEST(MonitoringTest, NamesAreStable) {
  EXPECT_STREQ(alarmLevelName(AlarmLevel::Critical), "critical");
  EXPECT_STREQ(controlActionName(ControlAction::RaisePumpSpeed),
               "raise pump speed");
}

//===----------------------------------------------------------------------===//
// Rack
//===----------------------------------------------------------------------===//

TEST(RackTest, SkatRackSolves) {
  Rack TheRack(core::makeSkatRack());
  auto Report = TheRack.solveSteadyState(25.0);
  ASSERT_TRUE(Report.hasValue()) << Report.message();
  EXPECT_EQ(Report->Modules.size(), 12u);
  EXPECT_EQ(Report->LoopFlowsM3PerS.size(), 12u);
  // Reverse-return manifolds keep module flows balanced.
  EXPECT_LT(Report->Balance.ImbalanceFraction, 0.05);
  EXPECT_GT(Report->TotalItPowerW, 100e3);
  EXPECT_GT(Report->Pue, 1.0);
  EXPECT_LT(Report->Pue, 1.5);
}

TEST(RackTest, ExceedsOnePetaflops) {
  Rack TheRack(core::makeSkatRack());
  // Paper Section 5: "not less than 12 new-generation CMs, with a total
  // performance above 1 PFlops, in a single 47U computer rack".
  EXPECT_GT(TheRack.peakPflops(), 1.0);
  EXPECT_GE(TheRack.maxModulesByHeight(), 12);
}

TEST(RackTest, LoopIsolationKeepsOthersHealthy) {
  Rack TheRack(core::makeSkatRack());
  auto Report = TheRack.solveSteadyState(25.0, /*IsolatedLoop=*/3);
  ASSERT_TRUE(Report.hasValue()) << Report.message();
  // The isolated module reports down; the others stay within limits.
  EXPECT_LT(Report->LoopFlowsM3PerS[3],
            0.05 * Report->Balance.MeanFlowM3PerS);
  for (size_t I = 0; I != Report->Modules.size(); ++I) {
    if (I == 3)
      continue;
    EXPECT_LT(Report->Modules[I].MaxJunctionTempC, 55.0) << "module " << I;
  }
  EXPECT_LT(Report->Balance.ImbalanceFraction, 0.05);
}

TEST(RackTest, IsolationIndexValidated) {
  Rack TheRack(core::makeSkatRack());
  auto Report = TheRack.solveSteadyState(25.0, /*IsolatedLoop=*/99);
  EXPECT_FALSE(Report.hasValue());
}

TEST(RackTest, HotAmbientRaisesChillerPower) {
  Rack TheRack(core::makeSkatRack());
  auto Cool = TheRack.solveSteadyState(20.0);
  auto Hot = TheRack.solveSteadyState(38.0);
  ASSERT_TRUE(Cool.hasValue());
  ASSERT_TRUE(Hot.hasValue());
  EXPECT_GT(Hot->ChillerPowerW, Cool->ChillerPowerW);
  EXPECT_GT(Hot->Pue, Cool->Pue);
}

//===----------------------------------------------------------------------===//
// Off-nominal chiller and PSU edges (the regimes fault scenarios visit)
//===----------------------------------------------------------------------===//

TEST(ChillerTest, FreeCoolingClampsCop) {
  Chiller Plant = Chiller::makeSkatRackChiller();
  // Ambient far below the 18 C supply setpoint: negative lift clamps to
  // the free-cooling COP instead of going Carnot-infinite.
  EXPECT_DOUBLE_EQ(Plant.cop(-20.0), 15.0);
  EXPECT_LE(Plant.cop(5.0), 15.0);
  EXPECT_GT(Plant.electricalPowerW(100e3, -20.0), 0.0);
}

TEST(ChillerTest, CopDegradesMonotonicallyIntoHeatWave) {
  Chiller Plant = Chiller::makeSkatRackChiller();
  double Prev = 1e9;
  for (double AmbientC : {15.0, 25.0, 35.0, 45.0, 55.0}) {
    double Cop = Plant.cop(AmbientC);
    EXPECT_GT(Cop, 0.0) << AmbientC;
    EXPECT_LE(Cop, Prev) << AmbientC;
    Prev = Cop;
  }
  // A heat wave costs real electrical power at fixed duty.
  EXPECT_GT(Plant.electricalPowerW(100e3, 45.0),
            1.2 * Plant.electricalPowerW(100e3, 25.0));
}

TEST(ChillerTest, OverloadFlagsExactlyAboveRating) {
  Chiller Plant("edge", 18.0, 100e3);
  EXPECT_FALSE(Plant.isOverloaded(0.0));
  EXPECT_FALSE(Plant.isOverloaded(100e3));
  EXPECT_TRUE(Plant.isOverloaded(100e3 + 1.0));
}

TEST(ChillerTest, ColderSetpointCostsCop) {
  Chiller Plant = Chiller::makeSkatRackChiller();
  double Nominal = Plant.cop(35.0);
  Plant.setSupplyTempC(8.0);
  EXPECT_LT(Plant.cop(35.0), Nominal);
  EXPECT_DOUBLE_EQ(Plant.supplyTempC(), 8.0);
}

TEST(PowerSupplyTest, ZeroLoadDrawsNothing) {
  PowerSupplyUnit Psu = PowerSupplyUnit::makeSkatImmersionPsu();
  EXPECT_DOUBLE_EQ(Psu.lossW(0.0), 0.0);
  EXPECT_DOUBLE_EQ(Psu.inputPowerW(0.0), 0.0);
  EXPECT_GT(Psu.efficiencyAt(0.0), 0.0); // Curve endpoint, not a div-by-0.
}

TEST(PowerSupplyTest, OverRatedLoadClampsEfficiencyNotLoss) {
  PowerSupplyUnit Psu = PowerSupplyUnit::makeSkatImmersionPsu();
  // Efficiency saturates at the rating...
  EXPECT_DOUBLE_EQ(Psu.efficiencyAt(5000.0), Psu.efficiencyAt(4000.0));
  // ...but losses keep scaling with the actual load.
  EXPECT_GT(Psu.lossW(5000.0), Psu.lossW(4000.0));
  EXPECT_GT(Psu.inputPowerW(5000.0), 5000.0);
}

TEST(PowerSupplyTest, LightLoadRegimeIsLeastEfficient) {
  // The faults engine's PSU-droop heat model leans on the curve being
  // worst at light load; pin that shape down.
  PowerSupplyUnit Psu = PowerSupplyUnit::makeSkatImmersionPsu();
  EXPECT_LT(Psu.efficiencyAt(50.0), Psu.efficiencyAt(1000.0));
  EXPECT_LT(Psu.efficiencyAt(1000.0), Psu.efficiencyAt(3000.0));
}
