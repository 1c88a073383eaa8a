//===- tests/hydraulics_test.cpp - Unit tests for rcs_hydraulics ------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hydraulics/Components.h"
#include "hydraulics/FlowNetwork.h"
#include "hydraulics/HeatExchanger.h"
#include "hydraulics/Manifold.h"

#include "fluids/Fluid.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace rcs;
using namespace rcs::hydraulics;

//===----------------------------------------------------------------------===//
// PipeSegment
//===----------------------------------------------------------------------===//

TEST(PipeTest, LaminarMatchesHagenPoiseuille) {
  // dP = 128 mu L Q / (pi D^4) for laminar flow.
  auto Oil = fluids::makeWhiteMineralOil();
  PipeSegment Pipe(2.0, 0.02);
  double Q = 5e-5; // Re will be well under 2300 in viscous oil.
  double TempC = 20.0;
  double Re = (Q / (M_PI * 0.01 * 0.01)) * 0.02 /
              Oil->kinematicViscosityM2PerS(TempC);
  ASSERT_LT(Re, 2300.0);
  double Expected = 128.0 * Oil->dynamicViscosityPaS(TempC) * 2.0 * Q /
                    (M_PI * std::pow(0.02, 4.0));
  double Actual = Pipe.pressureDropPa(Q, *Oil, TempC);
  EXPECT_NEAR(Actual, Expected, 0.06 * Expected); // Churchill ~ laminar.
}

TEST(PipeTest, TurbulentNearBlasius) {
  auto Water = fluids::makeWater();
  PipeSegment Pipe(2.0, 0.02);
  double V = 2.0;
  double Q = V * M_PI * 0.01 * 0.01;
  double TempC = 20.0;
  double Re = V * 0.02 / Water->kinematicViscosityM2PerS(TempC);
  ASSERT_GT(Re, 4000.0);
  double Blasius = 0.316 / std::pow(Re, 0.25);
  double Rho = Water->densityKgPerM3(TempC);
  double Expected = Blasius * (2.0 / 0.02) * 0.5 * Rho * V * V;
  double Actual = Pipe.pressureDropPa(Q, *Water, TempC);
  EXPECT_NEAR(Actual, Expected, 0.15 * Expected);
}

TEST(PipeTest, DropIsOddInFlow) {
  auto Water = fluids::makeWater();
  PipeSegment Pipe(1.0, 0.02);
  double Forward = Pipe.pressureDropPa(1e-3, *Water, 20.0);
  double Backward = Pipe.pressureDropPa(-1e-3, *Water, 20.0);
  EXPECT_NEAR(Forward, -Backward, 1e-9);
  EXPECT_DOUBLE_EQ(Pipe.pressureDropPa(0.0, *Water, 20.0), 0.0);
}

TEST(PipeTest, VelocityFromFlow) {
  PipeSegment Pipe(1.0, 0.02);
  double Area = M_PI * 0.01 * 0.01;
  EXPECT_NEAR(Pipe.velocityMPerS(1e-3), 1e-3 / Area, 1e-12);
}

//===----------------------------------------------------------------------===//
// Fitting / valve
//===----------------------------------------------------------------------===//

TEST(FittingTest, QuadraticInFlow) {
  auto Water = fluids::makeWater();
  Fitting F(2.0, 0.02);
  double D1 = F.pressureDropPa(1e-3, *Water, 20.0);
  double D2 = F.pressureDropPa(2e-3, *Water, 20.0);
  EXPECT_NEAR(D2 / D1, 4.0, 1e-6);
}

TEST(ValveTest, ClosingRaisesResistance) {
  auto Water = fluids::makeWater();
  BalancingValve V(2.0, 0.02);
  double Open = V.pressureDropPa(1e-3, *Water, 20.0);
  V.setOpening(0.5);
  double Half = V.pressureDropPa(1e-3, *Water, 20.0);
  EXPECT_NEAR(Half / Open, 4.0, 1e-6);
  V.setOpening(0.0);
  double Shut = V.pressureDropPa(1e-3, *Water, 20.0);
  EXPECT_GT(Shut, 1e5 * Open);
}

//===----------------------------------------------------------------------===//
// Pump
//===----------------------------------------------------------------------===//

TEST(PumpTest, HeadDecreasesWithFlow) {
  Pump P = Pump::makeOilCirculationPump("p", 2e-3, 1e5);
  EXPECT_GT(P.headPa(0.0), P.headPa(1e-3));
  EXPECT_GT(P.headPa(1e-3), P.headPa(2e-3));
  EXPECT_NEAR(P.headPa(2e-3), 1e5, 1.0);
}

TEST(PumpTest, AffinityLaws) {
  Pump P = Pump::makeOilCirculationPump("p", 2e-3, 1e5);
  double FullShutoff = P.headPa(0.0);
  P.setSpeedFraction(0.5);
  EXPECT_NEAR(P.headPa(0.0), 0.25 * FullShutoff, 1.0);
  // At half speed and half the flow, head is a quarter.
  P.setSpeedFraction(1.0);
  double H1 = P.headPa(1e-3);
  P.setSpeedFraction(0.5);
  EXPECT_NEAR(P.headPa(0.5e-3), 0.25 * H1, 1.0);
}

TEST(PumpTest, StoppedPumpResists) {
  Pump P = Pump::makeOilCirculationPump("p", 2e-3, 1e5);
  P.setSpeedFraction(0.0);
  EXPECT_TRUE(P.isStopped());
  auto Oil = fluids::makeMineralOilMd45();
  EXPECT_GT(P.pressureDropPa(1e-3, *Oil, 30.0), 1e4);
  EXPECT_DOUBLE_EQ(P.electricalPowerW(1e-3), 0.0);
}

TEST(PumpTest, ElectricalPowerPositiveWhenPumping) {
  Pump P = Pump::makeOilCirculationPump("p", 2e-3, 1e5);
  double W = P.electricalPowerW(2e-3);
  // Hydraulic power Q*H = 200 W at 55% efficiency -> ~364 W.
  EXPECT_NEAR(W, 2e-3 * 1e5 / 0.55, 5.0);
}

TEST(PumpTest, AsFlowElementAddsHead) {
  Pump P = Pump::makeOilCirculationPump("p", 2e-3, 1e5);
  auto Oil = fluids::makeMineralOilMd45();
  EXPECT_LT(P.pressureDropPa(1e-3, *Oil, 30.0), 0.0);
  // The element's dP(Q) must be strictly increasing for the solver.
  double Previous = P.pressureDropPa(-2e-3, *Oil, 30.0);
  for (double Q = -1.8e-3; Q < 3e-3; Q += 2e-4) {
    double Current = P.pressureDropPa(Q, *Oil, 30.0);
    EXPECT_GT(Current, Previous) << "at Q=" << Q;
    Previous = Current;
  }
}

//===----------------------------------------------------------------------===//
// FlowNetwork
//===----------------------------------------------------------------------===//

TEST(FlowNetworkTest, SingleLoopOperatingPoint) {
  // Pump against a single pipe: operating point where head == loss.
  auto Water = fluids::makeWater();
  FlowNetwork Net;
  JunctionId A = Net.addJunction("a");
  JunctionId B = Net.addJunction("b");

  std::vector<std::unique_ptr<FlowElement>> PumpSide;
  PumpSide.push_back(std::make_unique<Pump>(
      Pump::makeOilCirculationPump("p", 2e-3, 5e4)));
  Net.addEdge("pump", A, B, std::move(PumpSide));

  std::vector<std::unique_ptr<FlowElement>> PipeSide;
  PipeSide.push_back(std::make_unique<PipeSegment>(10.0, 0.02));
  EdgeId PipeEdge = Net.addEdge("pipe", B, A, std::move(PipeSide));

  auto Solution = Net.solve(*Water, 20.0, 1e-3);
  ASSERT_TRUE(Solution.hasValue());
  double Q = Solution->EdgeFlowsM3PerS[PipeEdge];
  EXPECT_GT(Q, 0.0);
  // Verify the operating point: pipe loss equals pump head.
  double Loss = Net.edgePressureDropPa(PipeEdge, Q, *Water, 20.0);
  Pump Reference = Pump::makeOilCirculationPump("p", 2e-3, 5e4);
  EXPECT_NEAR(Loss, Reference.headPa(Q), 0.02 * Loss);
  EXPECT_LT(Solution->MaxContinuityErrorM3PerS, 1e-8);
}

TEST(FlowNetworkTest, ResidualHistoryDecreasesMonotonically) {
  // The converged attempt's per-iterate worst continuity error rides on
  // the solution; damped Newton must never let it grow.
  auto Water = fluids::makeWater();
  RackHydraulicsConfig Config;
  Config.Layout = ManifoldLayout::ReverseReturn;
  RackHydraulics Rack = buildRackPrimaryLoop(Config);
  auto Solution = Rack.Network.solve(*Water, 18.0, 1e-3);
  ASSERT_TRUE(Solution.hasValue());

  const std::vector<double> &History = Solution->ResidualHistory;
  // Entry 0 is the initial guess, then one entry per accepted iterate.
  ASSERT_EQ(History.size(),
            static_cast<size_t>(Solution->NewtonIterations) + 1);
  ASSERT_GE(History.size(), 2u);
  EXPECT_GT(History.front(), 0.0);
  for (size_t I = 1; I != History.size(); ++I)
    EXPECT_LE(History[I], History[I - 1])
        << "continuity error grew at iterate " << I;
  // The last iterate must match the solve's convergence claim.
  EXPECT_LT(History.back(), 1e-6);
}

TEST(FlowNetworkTest, ParallelBranchesSplitByResistance) {
  auto Water = fluids::makeWater();
  FlowNetwork Net;
  JunctionId A = Net.addJunction("a");
  JunctionId B = Net.addJunction("b");

  std::vector<std::unique_ptr<FlowElement>> PumpSide;
  PumpSide.push_back(std::make_unique<Pump>(
      Pump::makeOilCirculationPump("p", 4e-3, 5e4)));
  Net.addEdge("pump", A, B, std::move(PumpSide));

  // Two identical fittings in parallel except one has 4x the K: flows
  // should split 2:1 (quadratic elements).
  std::vector<std::unique_ptr<FlowElement>> Branch1;
  Branch1.push_back(std::make_unique<Fitting>(10.0, 0.02));
  EdgeId E1 = Net.addEdge("branch1", B, A, std::move(Branch1));

  std::vector<std::unique_ptr<FlowElement>> Branch2;
  Branch2.push_back(std::make_unique<Fitting>(40.0, 0.02));
  EdgeId E2 = Net.addEdge("branch2", B, A, std::move(Branch2));

  auto Solution = Net.solve(*Water, 20.0, 1e-3);
  ASSERT_TRUE(Solution.hasValue());
  double Q1 = Solution->EdgeFlowsM3PerS[E1];
  double Q2 = Solution->EdgeFlowsM3PerS[E2];
  EXPECT_NEAR(Q1 / Q2, 2.0, 0.02);
}

TEST(FlowNetworkTest, EmptyNetworkFails) {
  auto Water = fluids::makeWater();
  FlowNetwork Net;
  auto Solution = Net.solve(*Water, 20.0);
  EXPECT_FALSE(Solution.hasValue());
}

TEST(FlowNetworkTest, StoppedPumpKillsFlow) {
  auto Oil = fluids::makeMineralOilMd45();
  FlowNetwork Net;
  JunctionId A = Net.addJunction("a");
  JunctionId B = Net.addJunction("b");
  std::vector<std::unique_ptr<FlowElement>> PumpSide;
  PumpSide.push_back(std::make_unique<Pump>(
      Pump::makeOilCirculationPump("p", 2e-3, 5e4)));
  EdgeId PumpEdge = Net.addEdge("pump", A, B, std::move(PumpSide));
  std::vector<std::unique_ptr<FlowElement>> PipeSide;
  PipeSide.push_back(std::make_unique<PipeSegment>(5.0, 0.02));
  Net.addEdge("pipe", B, A, std::move(PipeSide));

  auto *P = static_cast<Pump *>(Net.elementAt(PumpEdge, 0));
  P->setSpeedFraction(0.0);
  auto Solution = Net.solve(*Oil, 30.0, 1e-3);
  ASSERT_TRUE(Solution.hasValue());
  EXPECT_NEAR(Solution->EdgeFlowsM3PerS[PumpEdge], 0.0, 1e-9);
}

//===----------------------------------------------------------------------===//
// Heat exchanger (effectiveness-NTU)
//===----------------------------------------------------------------------===//

TEST(HeatExchangerTest, EnergyBalance) {
  PlateHeatExchanger Hx("hx", 2000.0);
  double HotC = 1500.0, ColdC = 3000.0;
  auto R = Hx.transfer(45.0, HotC, 15.0, ColdC);
  double HotLoss = HotC * (45.0 - R.HotOutletTempC);
  double ColdGain = ColdC * (R.ColdOutletTempC - 15.0);
  EXPECT_NEAR(HotLoss, R.DutyW, 1e-6);
  EXPECT_NEAR(ColdGain, R.DutyW, 1e-6);
  EXPECT_GT(R.DutyW, 0.0);
  EXPECT_GT(R.Effectiveness, 0.0);
  EXPECT_LT(R.Effectiveness, 1.0);
}

TEST(HeatExchangerTest, OutletsBetweenInlets) {
  PlateHeatExchanger Hx("hx", 2000.0);
  auto R = Hx.transfer(45.0, 1500.0, 15.0, 3000.0);
  EXPECT_LT(R.HotOutletTempC, 45.0);
  EXPECT_GT(R.HotOutletTempC, 15.0);
  EXPECT_GT(R.ColdOutletTempC, 15.0);
  EXPECT_LT(R.ColdOutletTempC, 45.0);
}

TEST(HeatExchangerTest, DutyIncreasesWithUa) {
  PlateHeatExchanger Small("s", 500.0);
  PlateHeatExchanger Large("l", 5000.0);
  auto RS = Small.transfer(45.0, 1500.0, 15.0, 3000.0);
  auto RL = Large.transfer(45.0, 1500.0, 15.0, 3000.0);
  EXPECT_GT(RL.DutyW, RS.DutyW);
}

TEST(HeatExchangerTest, ZeroCapacityShortCircuits) {
  PlateHeatExchanger Hx("hx", 2000.0);
  auto R = Hx.transfer(45.0, 0.0, 15.0, 3000.0);
  EXPECT_DOUBLE_EQ(R.DutyW, 0.0);
  EXPECT_DOUBLE_EQ(R.HotOutletTempC, 45.0);
  EXPECT_DOUBLE_EQ(R.ColdOutletTempC, 15.0);
}

TEST(HeatExchangerTest, BalancedCounterflowLimit) {
  // Cr == 1: eps = NTU / (1 + NTU).
  PlateHeatExchanger Hx("hx", 2000.0);
  auto R = Hx.transfer(50.0, 2000.0, 10.0, 2000.0);
  double Ntu = 1.0;
  EXPECT_NEAR(R.Effectiveness, Ntu / (1.0 + Ntu), 1e-9);
}

TEST(HeatExchangerTest, CapacityRateHelper) {
  auto Water = fluids::makeWater();
  double C = PlateHeatExchanger::capacityRateWPerK(*Water, 1e-3, 20.0);
  EXPECT_NEAR(C, 1e-3 * 998.2 * 4182.0, 50.0);
}

TEST(HeatExchangerTest, SizeUaRoundTrip) {
  double HotC = 1500.0, ColdC = 3000.0;
  double Duty = 20000.0;
  double Ua = PlateHeatExchanger::sizeUaForDutyWPerK(Duty, 45.0, HotC, 15.0,
                                                ColdC);
  PlateHeatExchanger Hx("sized", Ua);
  auto R = Hx.transfer(45.0, HotC, 15.0, ColdC);
  EXPECT_NEAR(R.DutyW, Duty, 0.01 * Duty);
}

//===----------------------------------------------------------------------===//
// Manifold layouts (paper Fig. 5)
//===----------------------------------------------------------------------===//

namespace {

std::vector<double> solveLoopFlows(RackHydraulics &Rack) {
  auto Water = fluids::makeWater();
  auto Solution = Rack.Network.solve(*Water, 18.0, 1e-3);
  EXPECT_TRUE(Solution.hasValue()) << Solution.message();
  std::vector<double> Flows;
  if (!Solution)
    return Flows;
  for (EdgeId E : Rack.LoopEdges)
    Flows.push_back(Solution->EdgeFlowsM3PerS[E]);
  return Flows;
}

} // namespace

TEST(ManifoldTest, ReverseReturnSelfBalances) {
  RackHydraulicsConfig Config;
  Config.Layout = ManifoldLayout::ReverseReturn;
  RackHydraulics Rack = buildRackPrimaryLoop(Config);
  auto Flows = solveLoopFlows(Rack);
  ASSERT_EQ(Flows.size(), 6u);
  FlowBalanceStats Stats = computeFlowBalance(Flows);
  // The paper's claim: no balancing hardware needed; imbalance is small.
  EXPECT_LT(Stats.ImbalanceFraction, 0.05);
}

TEST(ManifoldTest, DirectReturnIsImbalanced) {
  RackHydraulicsConfig Config;
  Config.Layout = ManifoldLayout::DirectReturn;
  RackHydraulics Rack = buildRackPrimaryLoop(Config);
  auto Flows = solveLoopFlows(Rack);
  ASSERT_EQ(Flows.size(), 6u);
  FlowBalanceStats Stats = computeFlowBalance(Flows);
  RackHydraulicsConfig RevConfig;
  RevConfig.Layout = ManifoldLayout::ReverseReturn;
  RackHydraulics Rev = buildRackPrimaryLoop(RevConfig);
  auto RevFlows = solveLoopFlows(Rev);
  FlowBalanceStats RevStats = computeFlowBalance(RevFlows);
  // Direct return is measurably worse than reverse return.
  EXPECT_GT(Stats.ImbalanceFraction, 2.0 * RevStats.ImbalanceFraction);
  // And the first loop (closest to pump) takes the most flow.
  EXPECT_GT(Flows.front(), Flows.back());
}

TEST(ManifoldTest, LoopIsolationRedistributesEvenly) {
  RackHydraulicsConfig Config;
  Config.Layout = ManifoldLayout::ReverseReturn;
  RackHydraulics Rack = buildRackPrimaryLoop(Config);
  auto Before = solveLoopFlows(Rack);
  ASSERT_EQ(Before.size(), 6u);

  // Isolate loop 3 for maintenance (paper: "If a circulation loop in any
  // computational module fails, then the heat-transfer agent flow is
  // evenly changed in the rest of modules").
  auto *Valve = static_cast<BalancingValve *>(
      Rack.Network.elementAt(Rack.LoopEdges[2], Rack.LoopValveElementIndex));
  Valve->setOpening(0.0);
  auto After = solveLoopFlows(Rack);
  ASSERT_EQ(After.size(), 6u);
  EXPECT_LT(After[2], 0.02 * Before[2]); // Isolated loop carries ~nothing.

  std::vector<double> Remaining;
  for (size_t I = 0; I != After.size(); ++I)
    if (I != 2)
      Remaining.push_back(After[I]);
  FlowBalanceStats Stats = computeFlowBalance(Remaining);
  EXPECT_LT(Stats.ImbalanceFraction, 0.05);
  // Remaining loops gain flow.
  for (size_t I = 0; I != After.size(); ++I) {
    if (I != 2) {
      EXPECT_GT(After[I], Before[I]);
    }
  }
}

TEST(ManifoldTest, BalanceStatsIgnoreIsolatedLoops) {
  FlowBalanceStats Stats = computeFlowBalance({1.0, 1.02, 0.0, 0.98});
  EXPECT_NEAR(Stats.MeanFlowM3PerS, 1.0, 0.02);
  EXPECT_LT(Stats.ImbalanceFraction, 0.06);
  FlowBalanceStats Empty = computeFlowBalance({});
  EXPECT_DOUBLE_EQ(Empty.MeanFlowM3PerS, 0.0);
}

TEST(ManifoldTest, MoreLoopsStillBalanceInReverseReturn) {
  RackHydraulicsConfig Config;
  Config.Layout = ManifoldLayout::ReverseReturn;
  Config.NumLoops = 12; // A full 47U rack of CMs.
  RackHydraulics Rack = buildRackPrimaryLoop(Config);
  auto Flows = solveLoopFlows(Rack);
  ASSERT_EQ(Flows.size(), 12u);
  FlowBalanceStats Stats = computeFlowBalance(Flows);
  EXPECT_LT(Stats.ImbalanceFraction, 0.10);
}

//===----------------------------------------------------------------------===//
// Valve trim balancing (the procedure reverse-return makes unnecessary)
//===----------------------------------------------------------------------===//

#include "hydraulics/Balancing.h"

TEST(BalancingTest, TrimsDirectReturnToTarget) {
  RackHydraulicsConfig Config;
  Config.Layout = ManifoldLayout::DirectReturn;
  // Exaggerate the imbalance so the trim has real work to do.
  Config.ManifoldSegmentLengthM = 1.2;
  Config.ManifoldDiameterM = 0.032;
  RackHydraulics Rack = buildRackPrimaryLoop(Config);
  auto Water = fluids::makeWater();

  auto Before = Rack.Network.solve(*Water, 18.0, 1e-3);
  ASSERT_TRUE(Before.hasValue());
  std::vector<double> BeforeFlows;
  for (EdgeId E : Rack.LoopEdges)
    BeforeFlows.push_back(Before->EdgeFlowsM3PerS[E]);
  double BeforeImbalance =
      computeFlowBalance(BeforeFlows).ImbalanceFraction;
  ASSERT_GT(BeforeImbalance, 0.05); // Genuinely imbalanced to start.

  auto Result = trimBalancingValves(Rack, *Water, 18.0);
  ASSERT_TRUE(Result.hasValue()) << Result.message();
  EXPECT_TRUE(Result->Converged);
  EXPECT_LE(Result->FinalImbalanceFraction, 0.02 + 1e-9);
  EXPECT_GT(Result->Iterations, 0);
  // Balancing by throttling costs total flow.
  EXPECT_LT(Result->MeanFlowAfterM3PerS, Result->MeanFlowBeforeM3PerS);
  // The rich near-pump loops got throttled; the far loop stays open.
  EXPECT_LT(Result->ValveOpenings.front(), 1.0);
  EXPECT_NEAR(Result->ValveOpenings.back(), 1.0, 1e-9);
}

TEST(BalancingTest, ReverseReturnNeedsNoTrim) {
  RackHydraulicsConfig Config;
  Config.Layout = ManifoldLayout::ReverseReturn;
  RackHydraulics Rack = buildRackPrimaryLoop(Config);
  auto Water = fluids::makeWater();
  auto Result = trimBalancingValves(Rack, *Water, 18.0);
  ASSERT_TRUE(Result.hasValue());
  EXPECT_TRUE(Result->Converged);
  // Already in spec: converges immediately, valves untouched.
  EXPECT_EQ(Result->Iterations, 0);
  for (double Opening : Result->ValveOpenings)
    EXPECT_DOUBLE_EQ(Opening, 1.0);
}

TEST(BalancingTest, TrimmedValvesWastePumpHead) {
  // Balancing by throttling burns pump head across half-closed valves:
  // at equal balance quality, the reverse-return layout delivers more
  // loop flow from the same pump.
  auto Water = fluids::makeWater();

  RackHydraulicsConfig DirectConfig;
  DirectConfig.Layout = ManifoldLayout::DirectReturn;
  DirectConfig.ManifoldSegmentLengthM = 1.2;
  DirectConfig.ManifoldDiameterM = 0.032;
  RackHydraulics Direct = buildRackPrimaryLoop(DirectConfig);
  auto Trim = trimBalancingValves(Direct, *Water, 18.0);
  ASSERT_TRUE(Trim.hasValue());
  ASSERT_TRUE(Trim->Converged);
  // Commissioning took real work and deep throttling.
  EXPECT_GE(Trim->Iterations, 5);
  double DeepestOpening = 1.0;
  for (double Opening : Trim->ValveOpenings)
    DeepestOpening = std::min(DeepestOpening, Opening);
  EXPECT_LT(DeepestOpening, 0.5);

  RackHydraulicsConfig ReverseConfig = DirectConfig;
  ReverseConfig.Layout = ManifoldLayout::ReverseReturn;
  RackHydraulics Reverse = buildRackPrimaryLoop(ReverseConfig);
  auto Solution = Reverse.Network.solve(*Water, 18.0, 1e-3);
  ASSERT_TRUE(Solution.hasValue());
  std::vector<double> ReverseFlows;
  for (EdgeId E : Reverse.LoopEdges)
    ReverseFlows.push_back(Solution->EdgeFlowsM3PerS[E]);
  double ReverseMean = computeFlowBalance(ReverseFlows).MeanFlowM3PerS;
  EXPECT_GT(ReverseMean, Trim->MeanFlowAfterM3PerS);
}
