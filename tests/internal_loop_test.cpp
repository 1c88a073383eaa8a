//===- tests/internal_loop_test.cpp - CM internal hydraulics tests -----------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hydraulics/InternalLoop.h"

#include "fluids/Fluid.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace rcs;
using namespace rcs::hydraulics;

namespace {

InternalFlowReport mustSolve(const InternalLoopConfig &Config) {
  InternalLoop Loop = buildInternalLoop(Config);
  auto Oil = fluids::makeEngineeredDielectric();
  auto Report = solveInternalLoop(Loop, *Oil, 29.0);
  EXPECT_TRUE(Report.hasValue()) << Report.message();
  return Report ? *Report : InternalFlowReport();
}

} // namespace

TEST(InternalLoopTest, MassConservation) {
  InternalLoopConfig Config;
  InternalFlowReport Report = mustSolve(Config);
  ASSERT_EQ(Report.BoardFlowsM3PerS.size(), 12u);
  double Sum = std::accumulate(Report.BoardFlowsM3PerS.begin(),
                               Report.BoardFlowsM3PerS.end(), 0.0);
  EXPECT_NEAR(Sum, Report.TotalFlowM3PerS,
              0.01 * Report.TotalFlowM3PerS);
  EXPECT_GT(Report.TotalFlowM3PerS, 1e-4);
}

TEST(InternalLoopTest, TaperedReverseBalancesBoards) {
  InternalLoopConfig Config;
  Config.Design = PlenumDesign::TaperedReverse;
  InternalFlowReport Report = mustSolve(Config);
  EXPECT_LT(Report.Balance.ImbalanceFraction, 0.06);
}

TEST(InternalLoopTest, NarrowPlenumStarvesFarBoards) {
  InternalLoopConfig Narrow;
  Narrow.Design = PlenumDesign::UniformNarrow;
  InternalFlowReport NarrowReport = mustSolve(Narrow);

  InternalLoopConfig Tapered;
  Tapered.Design = PlenumDesign::TaperedReverse;
  InternalFlowReport TaperedReport = mustSolve(Tapered);

  EXPECT_GT(NarrowReport.Balance.ImbalanceFraction,
            2.0 * TaperedReport.Balance.ImbalanceFraction);
  // In the narrow direct-return design the near board out-draws the far
  // board.
  EXPECT_GT(NarrowReport.BoardFlowsM3PerS.front(),
            NarrowReport.BoardFlowsM3PerS.back());
}

TEST(InternalLoopTest, MorePumpsMoreFlow) {
  InternalLoopConfig One;
  One.NumPumps = 1;
  InternalLoopConfig Two;
  Two.NumPumps = 2;
  double FlowOne = mustSolve(One).TotalFlowM3PerS;
  double FlowTwo = mustSolve(Two).TotalFlowM3PerS;
  // Gains are modest because the heat-exchanger resistance dominates the
  // loop - the reason SKAT+ also raises the pump head, not just count.
  EXPECT_GT(FlowTwo, 1.03 * FlowOne);
}

TEST(InternalLoopTest, ViscousOilReducesFlow) {
  InternalLoopConfig Config;
  InternalLoop Loop = buildInternalLoop(Config);
  auto Thin = fluids::makeEngineeredDielectric();
  auto Thick = fluids::makeWhiteMineralOil();
  auto ThinReport = solveInternalLoop(Loop, *Thin, 29.0);
  auto ThickReport = solveInternalLoop(Loop, *Thick, 29.0);
  ASSERT_TRUE(ThinReport.hasValue());
  ASSERT_TRUE(ThickReport.hasValue());
  EXPECT_LT(ThickReport->TotalFlowM3PerS, ThinReport->TotalFlowM3PerS);
}

TEST(InternalLoopTest, ColdOilFlowsLessThanWarm) {
  // Cold starts matter: viscosity at 5 C vs 35 C.
  InternalLoopConfig Config;
  InternalLoop Loop = buildInternalLoop(Config);
  auto Oil = fluids::makeEngineeredDielectric();
  auto Cold = solveInternalLoop(Loop, *Oil, 5.0);
  auto Warm = solveInternalLoop(Loop, *Oil, 35.0);
  ASSERT_TRUE(Cold.hasValue());
  ASSERT_TRUE(Warm.hasValue());
  EXPECT_LT(Cold->TotalFlowM3PerS, Warm->TotalFlowM3PerS);
}

TEST(InternalLoopTest, BoardCountScalesNetwork) {
  InternalLoopConfig Sixteen;
  Sixteen.NumBoards = 16; // The paper: 12 to 16 CCBs per module.
  InternalFlowReport Report = mustSolve(Sixteen);
  ASSERT_EQ(Report.BoardFlowsM3PerS.size(), 16u);
  EXPECT_LT(Report.Balance.ImbalanceFraction, 0.12);
}
