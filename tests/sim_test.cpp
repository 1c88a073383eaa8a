//===- tests/sim_test.cpp - Unit tests for rcs_sim and rcs_workload ---------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/MonteCarlo.h"
#include "sim/Transient.h"
#include "workload/Workload.h"

#include "core/Designs.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace rcs;
using namespace rcs::sim;
using namespace rcs::workload;

//===----------------------------------------------------------------------===//
// Workload generation
//===----------------------------------------------------------------------===//

TEST(WorkloadTest, NominalPointsMatchPaperBand) {
  // The paper: production workloads use 85..95% of the hardware.
  for (ApplicationClass App :
       {ApplicationClass::SpinGlassMonteCarlo,
        ApplicationClass::MolecularDynamics,
        ApplicationClass::DenseLinearAlgebra}) {
    fpga::WorkloadPoint Point = nominalPoint(App);
    EXPECT_GE(Point.Utilization, 0.85);
    EXPECT_LE(Point.Utilization, 0.95);
  }
  EXPECT_LT(nominalPoint(ApplicationClass::Idle).Utilization, 0.1);
}

TEST(WorkloadTest, TraceIsDeterministic) {
  TraceConfig Config;
  Config.Seed = 7;
  auto A = generateTrace(Config);
  auto B = generateTrace(Config);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_DOUBLE_EQ(A[I].Point.Utilization, B[I].Point.Utilization);
    EXPECT_DOUBLE_EQ(A[I].TimeS, B[I].TimeS);
  }
}

TEST(WorkloadTest, TraceBoundsAndTiming) {
  TraceConfig Config;
  Config.DurationS = 600.0;
  Config.SampleIntervalS = 10.0;
  auto Trace = generateTrace(Config);
  ASSERT_EQ(Trace.size(), 61u);
  for (const auto &Sample : Trace) {
    EXPECT_GE(Sample.Point.Utilization, 0.0);
    EXPECT_LE(Sample.Point.Utilization, 1.0);
  }
  EXPECT_DOUBLE_EQ(Trace.back().TimeS, 600.0);
}

TEST(WorkloadTest, PhaseDipsLowerMeanUtilization) {
  TraceConfig NoDips;
  NoDips.PhaseDipProbability = 0.0;
  NoDips.UtilizationJitter = 0.0;
  TraceConfig Dips = NoDips;
  Dips.PhaseDipProbability = 0.10;
  double MeanClean = meanUtilization(generateTrace(NoDips));
  double MeanDips = meanUtilization(generateTrace(Dips));
  EXPECT_NEAR(MeanClean, 0.95, 1e-9);
  EXPECT_LT(MeanDips, MeanClean - 0.02);
}

TEST(WorkloadTest, DutyCycleSplitsOnOff) {
  auto Trace = generateDutyCycle(ApplicationClass::MolecularDynamics,
                                 600.0, 0.5, 10.0);
  ASSERT_EQ(Trace.size(), 60u);
  int OnCount = 0;
  for (const auto &Sample : Trace)
    OnCount += Sample.Point.Utilization > 0.5;
  EXPECT_EQ(OnCount, 30);
}

//===----------------------------------------------------------------------===//
// Transient simulator
//===----------------------------------------------------------------------===//

namespace {

TransientSimulator makeSkatSimulator(TransientConfig Config =
                                         TransientConfig()) {
  return TransientSimulator(core::makeSkatModule(),
                            core::makeNominalConditions(), Config);
}

} // namespace

TEST(TransientTest, WarmupApproachesSteadyState) {
  TransientSimulator Simulator = makeSkatSimulator();
  auto Trace = Simulator.run(4 * 3600.0);
  ASSERT_TRUE(Trace.hasValue()) << Trace.message();
  ASSERT_GT(Trace->size(), 100u);
  // Temperatures settle: the last hour moves by less than 0.2 C.
  double Late = Trace->back().MaxJunctionTempC;
  double Earlier = (*Trace)[Trace->size() - 300].MaxJunctionTempC;
  EXPECT_NEAR(Late, Earlier, 0.2);
  // And the settled point is in the SKAT envelope (lumped model is
  // coarser than the steady solver; allow a few degrees).
  EXPECT_LT(Late, 55.0);
  EXPECT_GT(Late, 35.0);
  EXPECT_LT(Trace->back().OilTempC, 31.0);
}

TEST(TransientTest, MonotoneWarmupFromCold) {
  TransientSimulator Simulator = makeSkatSimulator();
  auto Trace = Simulator.run(1800.0);
  ASSERT_TRUE(Trace.hasValue());
  // Oil only warms during the first half hour at full load.
  for (size_t I = 1; I < Trace->size(); ++I)
    EXPECT_GE((*Trace)[I].OilTempC, (*Trace)[I - 1].OilTempC - 0.01);
}

TEST(TransientTest, EventsPastDurationAreCountedAsDropped) {
  // Events scheduled after the horizon never fire; that must be visible
  // in telemetry rather than silently swallowed.
  telemetry::Counter &Dropped =
      telemetry::Registry::global().counter("sim.transient.dropped_events");
  uint64_t Before = Dropped.value();

  TransientSimulator Simulator = makeSkatSimulator();
  Simulator.schedulePumpSpeed(900.0, 0.5);  // Fires.
  Simulator.schedulePumpSpeed(7200.0, 0.0); // Past the horizon: dropped.
  Simulator.scheduleWaterFlow(9000.0, 0.0); // Also dropped.
  auto Trace = Simulator.run(1800.0);
  ASSERT_TRUE(Trace.hasValue()) << Trace.message();
  EXPECT_EQ(Dropped.value() - Before, 2u);

  // A run whose events all fire adds nothing.
  uint64_t Mid = Dropped.value();
  TransientSimulator Clean = makeSkatSimulator();
  Clean.schedulePumpSpeed(600.0, 0.8);
  ASSERT_TRUE(Clean.run(1800.0).hasValue());
  EXPECT_EQ(Dropped.value(), Mid);
}

TEST(TransientTest, PumpFailureTripsProtection) {
  TransientConfig Config;
  Config.ApplyControlActions = true;
  TransientSimulator Simulator = makeSkatSimulator(Config);
  Simulator.schedulePumpSpeed(3600.0, 0.0); // Pump dies after warm-up.
  auto Trace = Simulator.run(3.0 * 3600.0);
  ASSERT_TRUE(Trace.hasValue());

  bool SawAlarm = false, SawShutdown = false;
  double PeakJunction = 0.0;
  for (const auto &Sample : *Trace) {
    PeakJunction = std::max(PeakJunction, Sample.MaxJunctionTempC);
    if (Sample.TimeS > 3600.0 &&
        Sample.Alarm != rcsystem::AlarmLevel::Normal)
      SawAlarm = true;
    if (Sample.ShutDown)
      SawShutdown = true;
  }
  EXPECT_TRUE(SawAlarm);
  EXPECT_TRUE(SawShutdown);
  // Protection kept silicon below destruction even with a dead pump.
  EXPECT_LT(PeakJunction, 110.0);
  // After shutdown the module cools back down.
  EXPECT_LT(Trace->back().MaxJunctionTempC, 60.0);
}

TEST(TransientTest, PumpFailureWithoutControlRunsHotter) {
  TransientConfig NoControl;
  NoControl.ApplyControlActions = false;
  TransientSimulator Unprotected = makeSkatSimulator(NoControl);
  Unprotected.schedulePumpSpeed(1800.0, 0.0);
  auto UnprotectedTrace = Unprotected.run(2.0 * 3600.0);
  ASSERT_TRUE(UnprotectedTrace.hasValue());

  TransientConfig WithControl;
  WithControl.ApplyControlActions = true;
  TransientSimulator Protected = makeSkatSimulator(WithControl);
  Protected.schedulePumpSpeed(1800.0, 0.0);
  auto ProtectedTrace = Protected.run(2.0 * 3600.0);
  ASSERT_TRUE(ProtectedTrace.hasValue());

  auto peak = [](const std::vector<TraceSample> &Trace) {
    double Max = 0.0;
    for (const auto &Sample : Trace)
      Max = std::max(Max, Sample.MaxJunctionTempC);
    return Max;
  };
  EXPECT_GT(peak(*UnprotectedTrace), peak(*ProtectedTrace) + 5.0);
}

TEST(TransientTest, WorkloadStepChangesPower) {
  TransientSimulator Simulator = makeSkatSimulator();
  Simulator.scheduleWorkload(1800.0, fpga::WorkloadPoint{0.2, 1.0});
  auto Trace = Simulator.run(3600.0);
  ASSERT_TRUE(Trace.hasValue());
  double PowerBefore = 0.0, PowerAfter = 0.0;
  for (const auto &Sample : *Trace) {
    if (Sample.TimeS < 1700.0)
      PowerBefore = Sample.TotalPowerW;
    if (Sample.TimeS > 3500.0)
      PowerAfter = Sample.TotalPowerW;
  }
  EXPECT_LT(PowerAfter, 0.5 * PowerBefore);
}

TEST(TransientTest, WaterExcursionWarmsModule) {
  TransientSimulator Simulator = makeSkatSimulator();
  Simulator.scheduleWaterInlet(1800.0, 28.0);
  auto Trace = Simulator.run(2.5 * 3600.0);
  ASSERT_TRUE(Trace.hasValue());
  double OilBefore = 0.0, OilAfter = 0.0;
  for (const auto &Sample : *Trace) {
    if (Sample.TimeS < 1700.0)
      OilBefore = Sample.OilTempC;
    OilAfter = Sample.OilTempC;
  }
  EXPECT_GT(OilAfter, OilBefore + 5.0);
}

//===----------------------------------------------------------------------===//
// Monte-Carlo availability
//===----------------------------------------------------------------------===//

TEST(MonteCarloTest, DeterministicAcrossRuns) {
  AvailabilityConfig Config;
  Config.Components = makeImmersionComponents(96, 45.0, 1, false);
  Config.NumTrials = 50;
  auto A = simulateAvailability(Config);
  auto B = simulateAvailability(Config);
  EXPECT_DOUBLE_EQ(A.FailuresPerYear, B.FailuresPerYear);
  EXPECT_DOUBLE_EQ(A.Availability, B.Availability);
}

TEST(MonteCarloTest, HotterJunctionsFailMore) {
  AvailabilityConfig Cold;
  Cold.Components = makeImmersionComponents(96, 45.0, 1, false);
  AvailabilityConfig Hot;
  Hot.Components = makeImmersionComponents(96, 84.0, 1, false);
  auto ColdReport = simulateAvailability(Cold);
  auto HotReport = simulateAvailability(Hot);
  EXPECT_GT(HotReport.FailuresPerYear, 3.0 * ColdReport.FailuresPerYear);
  EXPECT_LT(HotReport.Availability, ColdReport.Availability);
}

TEST(MonteCarloTest, WashoutGreaseAddsMaintenance) {
  AvailabilityConfig Clean;
  Clean.Components = makeImmersionComponents(96, 45.0, 1, false);
  AvailabilityConfig Washout;
  Washout.Components = makeImmersionComponents(96, 45.0, 1, true);
  auto CleanReport = simulateAvailability(Clean);
  auto WashoutReport = simulateAvailability(Washout);
  EXPECT_GT(WashoutReport.ModuleDowntimeHoursPerYear,
            CleanReport.ModuleDowntimeHoursPerYear + 10.0);
}

TEST(MonteCarloTest, ColdPlateLeaksCostDowntime) {
  // Same junction temperature; the cold-plate design's connectors and
  // condensation events add outages immersion does not have.
  AvailabilityConfig Immersion;
  Immersion.Components = makeImmersionComponents(96, 50.0, 1, false);
  AvailabilityConfig ColdPlate;
  ColdPlate.Components = makeColdPlateComponents(96, 50.0, 96 * 2);
  auto ImmersionReport = simulateAvailability(Immersion);
  auto ColdPlateReport = simulateAvailability(ColdPlate);
  EXPECT_GT(ColdPlateReport.ModuleDowntimeHoursPerYear,
            ImmersionReport.ModuleDowntimeHoursPerYear);
}

TEST(MonteCarloTest, PerComponentBreakdownSums) {
  AvailabilityConfig Config;
  Config.Components = makeAirComponents(32, 73.0, 8);
  auto Report = simulateAvailability(Config);
  double Sum = 0.0;
  for (double PerYear : Report.PerComponentFailuresPerYear)
    Sum += PerYear;
  EXPECT_NEAR(Sum, Report.FailuresPerYear, 1e-9);
  EXPECT_EQ(Report.PerComponentFailuresPerYear.size(),
            Config.Components.size());
}

TEST(MonteCarloTest, AvailabilityInUnitRange) {
  AvailabilityConfig Config;
  Config.Components = makeColdPlateComponents(96, 60.0, 200);
  auto Report = simulateAvailability(Config);
  EXPECT_GT(Report.Availability, 0.9);
  EXPECT_LE(Report.Availability, 1.0);
}

TEST(TransientTest, WaterLossRideThrough) {
  // Losing the facility water leaves the bath riding on its inventory:
  // oil warms steadily but junctions stay protected for minutes.
  TransientConfig Config;
  Config.ApplyControlActions = false;
  TransientSimulator Simulator = makeSkatSimulator(Config);
  Simulator.scheduleWaterFlow(1800.0, 0.0);
  auto Trace = Simulator.run(3600.0);
  ASSERT_TRUE(Trace.hasValue());
  double OilAtFail = 0.0, OilEnd = 0.0, TjFiveMinLater = 0.0;
  for (const auto &Sample : *Trace) {
    if (Sample.TimeS <= 1800.0)
      OilAtFail = Sample.OilTempC;
    if (Sample.TimeS <= 2100.0)
      TjFiveMinLater = Sample.MaxJunctionTempC;
    OilEnd = Sample.OilTempC;
  }
  EXPECT_GT(OilEnd, OilAtFail + 10.0); // Bath heats without the HX.
  EXPECT_LT(TjFiveMinLater, 70.0);     // But junctions ride through 5 min.
}

TEST(TransientTest, WaterRestorationRecovers) {
  TransientConfig Config;
  Config.ApplyControlActions = false;
  TransientSimulator Simulator = makeSkatSimulator(Config);
  Simulator.scheduleWaterFlow(1800.0, 0.0);
  Simulator.scheduleWaterFlow(2400.0, 3.0e-4);
  auto Trace = Simulator.run(3.0 * 3600.0);
  ASSERT_TRUE(Trace.hasValue());
  // After restoration the module returns to its pre-failure envelope.
  EXPECT_LT(Trace->back().OilTempC, 31.0);
  EXPECT_LT(Trace->back().MaxJunctionTempC, 50.0);
}

//===----------------------------------------------------------------------===//
// Rack transient
//===----------------------------------------------------------------------===//

#include "sim/RackTransient.h"

TEST(RackTransientTest, SettlesNearSteadyRack) {
  RackTransientSimulator Simulator(core::makeSkatRack(), 25.0);
  auto Trace = Simulator.run(4.0 * 3600.0);
  ASSERT_TRUE(Trace.hasValue()) << Trace.message();
  const auto &Last = Trace->back();
  // The steady rack solver reports ~42 C junctions and <30 C oil; the
  // lumped transient should settle in the same neighbourhood.
  EXPECT_NEAR(Last.MaxJunctionTempC, 43.0, 5.0);
  EXPECT_LT(Last.MeanOilTempC, 31.0);
  EXPECT_NEAR(Last.WaterTempC, 18.0, 3.0);
  EXPECT_EQ(Last.ModulesShutDown, 0);
  // Chiller carries roughly the rack heat.
  EXPECT_NEAR(Last.ChillerDutyW, Last.TotalPowerW, 0.2 * Last.TotalPowerW);
}

TEST(RackTransientTest, ChillerOutageHeatsSharedLoop) {
  RackTransientConfig Config;
  Config.EnableProtection = false;
  RackTransientSimulator Simulator(core::makeSkatRack(), 25.0, Config);
  Simulator.scheduleChillerCapacity(3600.0, 0.0);
  auto Trace = Simulator.run(2.0 * 3600.0);
  ASSERT_TRUE(Trace.hasValue());
  double WaterBefore = 0.0, WaterAfter = 0.0;
  for (const auto &Sample : *Trace) {
    if (Sample.TimeS <= 3600.0)
      WaterBefore = Sample.WaterTempC;
    WaterAfter = Sample.WaterTempC;
  }
  EXPECT_GT(WaterAfter, WaterBefore + 15.0);
}

TEST(RackTransientTest, ProtectionTripsUnderLongOutage) {
  RackTransientSimulator Simulator(core::makeSkatRack(), 25.0);
  Simulator.scheduleChillerCapacity(1800.0, 0.0);
  auto Trace = Simulator.run(6.0 * 3600.0);
  ASSERT_TRUE(Trace.hasValue());
  int MaxDown = 0;
  double PeakJunction = 0.0;
  for (const auto &Sample : *Trace) {
    MaxDown = std::max(MaxDown, Sample.ModulesShutDown);
    PeakJunction = std::max(PeakJunction, Sample.MaxJunctionTempC);
  }
  EXPECT_EQ(MaxDown, 12);           // Everything eventually protected.
  EXPECT_LT(PeakJunction, 95.0);    // Before real damage temperatures.
  EXPECT_GT(PeakJunction, 80.0);    // But the trip genuinely fired.
}

TEST(RackTransientTest, ChillerRepairRecovers) {
  RackTransientConfig Config;
  Config.EnableProtection = false; // Keep computing through the blip.
  RackTransientSimulator Simulator(core::makeSkatRack(), 25.0, Config);
  Simulator.scheduleChillerCapacity(3600.0, 0.0);
  Simulator.scheduleChillerCapacity(3600.0 + 600.0, 1.0); // 10 min outage.
  auto Trace = Simulator.run(5.0 * 3600.0);
  ASSERT_TRUE(Trace.hasValue());
  const auto &Last = Trace->back();
  EXPECT_NEAR(Last.WaterTempC, 18.0, 3.0);
  EXPECT_LT(Last.MaxJunctionTempC, 50.0);
  EXPECT_EQ(Last.ModulesShutDown, 0);
}

TEST(RackTransientTest, HonoursTheModuleCoolantAndTim) {
  // The rack steps the module transient's physics, so a coolant or TIM
  // change must move a rack's junctions as it moves a module's.
  const rcsystem::RackConfig Skat = core::makeSkatRack();
  auto EndJunctionsC = [&](const rcsystem::ModuleConfig &Module) {
    rcsystem::RackConfig Rack = Skat;
    Rack.Module = Module;
    RackTransientSimulator RackSim(Rack, 25.0);
    auto RackTrace = RackSim.run(1800.0);
    TransientSimulator ModuleSim(Module, core::makeNominalConditions());
    auto ModuleTrace = ModuleSim.run(1800.0);
    EXPECT_TRUE(RackTrace.hasValue() && ModuleTrace.hasValue());
    return std::make_pair(RackTrace->back().MaxJunctionTempC,
                          ModuleTrace->back().MaxJunctionTempC);
  };
  const auto Base = EndJunctionsC(Skat.Module);
  rcsystem::ModuleConfig Oil = Skat.Module;
  Oil.Immersion.CoolantKind =
      rcsystem::ImmersionCoolingConfig::Coolant::WhiteMineralOil;
  rcsystem::ModuleConfig Grease = Skat.Module;
  Grease.Immersion.Tim =
      rcsystem::ImmersionCoolingConfig::TimKind::SiliconeGrease;
  for (const rcsystem::ModuleConfig &Variant : {Oil, Grease}) {
    const auto Moved = EndJunctionsC(Variant);
    const double RackShift = Moved.first - Base.first;
    const double ModuleShift = Moved.second - Base.second;
    ASSERT_NE(ModuleShift, 0.0);
    EXPECT_GT(RackShift * ModuleShift, 0.0)
        << "rack moved " << RackShift << " C, module " << ModuleShift
        << " C";
  }
}

TEST(RackTransientTest, TenMinuteOutageIsRideThrough) {
  // The A3 story at rack scale: a 10-minute chiller outage never reaches
  // the long-life band thanks to oil + water inventories.
  RackTransientConfig Config;
  Config.EnableProtection = false;
  RackTransientSimulator Simulator(core::makeSkatRack(), 25.0, Config);
  Simulator.scheduleChillerCapacity(3600.0, 0.0);
  Simulator.scheduleChillerCapacity(4200.0, 1.0);
  auto Trace = Simulator.run(2.0 * 3600.0);
  ASSERT_TRUE(Trace.hasValue());
  double Peak = 0.0;
  for (const auto &Sample : *Trace)
    Peak = std::max(Peak, Sample.MaxJunctionTempC);
  EXPECT_LT(Peak, 70.0);
}

TEST(MonteCarloTest, ReportIndependentOfThreadCount) {
  // Per-trial RNG streams plus index-ordered reduction: the report must be
  // bit-identical at any worker count, not merely statistically close.
  AvailabilityConfig Serial;
  Serial.Components = makeColdPlateComponents(96, 55.0, 24);
  Serial.NumTrials = 64;
  Serial.NumThreads = 1;
  AvailabilityConfig Threaded = Serial;
  Threaded.NumThreads = 4;
  auto A = simulateAvailability(Serial);
  auto B = simulateAvailability(Threaded);
  EXPECT_EQ(A.FailuresPerYear, B.FailuresPerYear);
  EXPECT_EQ(A.ModuleDowntimeHoursPerYear, B.ModuleDowntimeHoursPerYear);
  EXPECT_EQ(A.Availability, B.Availability);
  ASSERT_EQ(A.PerComponentFailuresPerYear.size(),
            B.PerComponentFailuresPerYear.size());
  for (size_t I = 0; I != A.PerComponentFailuresPerYear.size(); ++I)
    EXPECT_EQ(A.PerComponentFailuresPerYear[I],
              B.PerComponentFailuresPerYear[I]);
}
