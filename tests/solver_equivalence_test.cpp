//===- tests/solver_equivalence_test.cpp - Fast-path vs seed-path checks -----===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The solver overhaul (cached LU factorizations, analytic hydraulic
/// Jacobians, warm starts, resampled property tables) must not change
/// results: a cached thermal factor gives the same bits as a fresh one,
/// `LuFactorization` the same bits as the seed `solveDense`, and the
/// hydraulic/property fast paths agree to well inside solver tolerance.
/// These tests pin those contracts on the topologies the simulators
/// actually use.
///
//===----------------------------------------------------------------------===//

#include "fluids/Fluid.h"
#include "hydraulics/InternalLoop.h"
#include "hydraulics/Manifold.h"
#include "support/Interp.h"
#include "support/Numerics.h"
#include "telemetry/Telemetry.h"
#include "thermal/Network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

using namespace rcs;
using namespace rcs::hydraulics;
using namespace rcs::thermal;

//===----------------------------------------------------------------------===//
// LU factorization vs solveDense
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic well-conditioned test matrix (diagonally dominant with
/// varied off-diagonal structure).
Matrix makeTestMatrix(size_t N) {
  Matrix A(N, N);
  for (size_t I = 0; I != N; ++I) {
    double RowSum = 0.0;
    for (size_t J = 0; J != N; ++J) {
      if (I == J)
        continue;
      double V = std::sin(0.7 * static_cast<double>(I * N + J) + 0.3);
      A.at(I, J) = V;
      RowSum += std::fabs(V);
    }
    A.at(I, I) = RowSum + 1.0 + static_cast<double>(I);
  }
  return A;
}

std::vector<double> makeTestRhs(size_t N, double Phase) {
  std::vector<double> B(N);
  for (size_t I = 0; I != N; ++I)
    B[I] = std::cos(1.3 * static_cast<double>(I) + Phase);
  return B;
}

} // namespace

TEST(LuFactorizationTest, MatchesSolveDenseBitForBit) {
  for (size_t N : {1u, 2u, 5u, 17u, 40u}) {
    Matrix A = makeTestMatrix(N);
    LuFactorization Lu;
    ASSERT_TRUE(Lu.factor(A).isOk());
    EXPECT_TRUE(Lu.valid());
    EXPECT_EQ(Lu.size(), N);
    for (double Phase : {0.0, 1.1, 2.9}) {
      std::vector<double> B = makeTestRhs(N, Phase);
      Expected<std::vector<double>> Dense = solveDense(A, B);
      ASSERT_TRUE(Dense);
      std::vector<double> Cached = Lu.solve(B);
      ASSERT_EQ(Cached.size(), Dense->size());
      for (size_t I = 0; I != N; ++I)
        EXPECT_EQ(Cached[I], (*Dense)[I])
            << "N=" << N << " Phase=" << Phase << " entry " << I;
    }
  }
}

TEST(LuFactorizationTest, SingularMatrixReportsSameErrorAsSolveDense) {
  Matrix A(3, 3);
  A.at(0, 0) = 1.0;
  A.at(1, 0) = 2.0; // Rows 1 and 2 are multiples of row 0.
  A.at(2, 0) = 3.0;
  LuFactorization Lu;
  Status FactorStatus = Lu.factor(A);
  ASSERT_FALSE(FactorStatus.isOk());
  EXPECT_FALSE(Lu.valid());
  Expected<std::vector<double>> Dense = solveDense(A, {1.0, 2.0, 3.0});
  ASSERT_FALSE(Dense);
  EXPECT_EQ(FactorStatus.message(), Dense.message());
}

TEST(NewtonSystemTest, AnalyticJacobianFindsTheSameRoot) {
  // F(x, y) = (x^2 + y - 3, x + y^2 - 5): smooth, one root near (1.2, 1.6).
  auto Residual = [](const std::vector<double> &X) {
    return std::vector<double>{X[0] * X[0] + X[1] - 3.0,
                               X[0] + X[1] * X[1] - 5.0};
  };
  NewtonOptions FdOptions;
  NewtonResult Fd = solveNewtonSystem(Residual, {1.0, 1.0}, FdOptions);
  ASSERT_TRUE(Fd.Converged);

  NewtonOptions AnalyticOptions;
  AnalyticOptions.Jacobian = [](const std::vector<double> &X,
                                const std::vector<double> &) {
    Matrix J(2, 2);
    J.at(0, 0) = 2.0 * X[0];
    J.at(0, 1) = 1.0;
    J.at(1, 0) = 1.0;
    J.at(1, 1) = 2.0 * X[1];
    return J;
  };
  NewtonResult Analytic =
      solveNewtonSystem(Residual, {1.0, 1.0}, AnalyticOptions);
  ASSERT_TRUE(Analytic.Converged);
  EXPECT_NEAR(Analytic.Solution[0], Fd.Solution[0], 1e-8);
  EXPECT_NEAR(Analytic.Solution[1], Fd.Solution[1], 1e-8);
  EXPECT_LE(Analytic.Iterations, Fd.Iterations + 1);
}

//===----------------------------------------------------------------------===//
// Thermal network: cached factorization vs a fresh network
//===----------------------------------------------------------------------===//

namespace {

struct LadderHandles {
  std::vector<NodeId> Internal;
  NodeId Boundary = 0;
};

/// An N-node RC ladder chained to one boundary: the topology of the
/// BM_ThermalTransientStep benchmark and the stacked-die models.
LadderHandles buildLadder(ThermalNetwork &Net, int N) {
  LadderHandles H;
  H.Boundary = Net.addBoundaryNode("sink", 20.0);
  NodeId Prev = H.Boundary;
  for (int I = 0; I != N; ++I) {
    NodeId Node =
        Net.addNode("n" + std::to_string(I), 50.0 + 3.0 * I);
    Net.addConductance(Prev, Node, 2.0 + 0.1 * I);
    Net.addHeatSource(Node, 5.0 + 0.5 * I);
    H.Internal.push_back(Node);
    Prev = Node;
  }
  return H;
}

} // namespace

// The reference in each test below is a network built fresh for each
// solve, which has no factor to reuse: whatever the cached network reuses
// or refactors, it must match that reference bit for bit.

TEST(ThermalEquivalenceTest, SteadyStateCachedMatchesUncachedExactly) {
  ThermalNetwork Cached;
  buildLadder(Cached, 24);
  for (int Round = 0; Round != 3; ++Round) {
    ThermalNetwork Fresh;
    buildLadder(Fresh, 24);
    Expected<std::vector<double>> A = Cached.solveSteadyState();
    Expected<std::vector<double>> B = Fresh.solveSteadyState();
    ASSERT_TRUE(A);
    ASSERT_TRUE(B);
    ASSERT_EQ(A->size(), B->size());
    for (size_t I = 0; I != A->size(); ++I)
      EXPECT_EQ((*A)[I], (*B)[I]) << "round " << Round << " node " << I;
  }
}

TEST(ThermalEquivalenceTest, RhsOnlyMutationsReuseTheFactorExactly) {
  ThermalNetwork Cached;
  LadderHandles H = buildLadder(Cached, 16);
  telemetry::Counter &Reuses =
      telemetry::Registry::global().counter("thermal.network.factor_reuses");

  // Prime the cache, then mutate only sources and boundary temperature:
  // the factorization must survive and still match the fresh network.
  ASSERT_TRUE(Cached.solveSteadyState());
  for (int Round = 0; Round != 3; ++Round) {
    ThermalNetwork Fresh;
    buildLadder(Fresh, 16);
    for (ThermalNetwork *Net : {&Cached, &Fresh}) {
      Net->setHeatSource(H.Internal[3], 12.0 + 2.0 * Round);
      Net->setBoundaryTemp(H.Boundary, 18.0 + Round);
    }
    uint64_t ReusesBefore = Reuses.value();
    Expected<std::vector<double>> A = Cached.solveSteadyState();
    EXPECT_EQ(Reuses.value(), ReusesBefore + 1);
    Expected<std::vector<double>> B = Fresh.solveSteadyState();
    ASSERT_TRUE(A);
    ASSERT_TRUE(B);
    for (size_t I = 0; I != A->size(); ++I)
      EXPECT_EQ((*A)[I], (*B)[I]) << "round " << Round << " node " << I;
  }
}

TEST(ThermalEquivalenceTest, TransientTrajectoriesMatchThroughMutations) {
  ThermalNetwork Cached;
  LadderHandles H = buildLadder(Cached, 12);
  std::vector<double> StateA(Cached.numNodes(), 22.0);
  std::vector<double> StateB = StateA;
  const double DtS = 2.0;
  for (int Step = 0; Step != 50; ++Step) {
    // Mid-run numeric mutations: conductance at step 20, capacitance at
    // step 35 — the cached path must refactor and stay exact. The fresh
    // network carries every mutation made so far.
    ThermalNetwork Fresh;
    buildLadder(Fresh, 12);
    if (Step == 20)
      Cached.setConductance(H.Internal[2], H.Internal[3], 7.5);
    if (Step >= 20)
      Fresh.setConductance(H.Internal[2], H.Internal[3], 7.5);
    if (Step == 35)
      Cached.setCapacitance(H.Internal[5], 90.0);
    if (Step >= 35)
      Fresh.setCapacitance(H.Internal[5], 90.0);
    // RHS-only mutations every step.
    Cached.setHeatSource(H.Internal[0], 5.0 + 0.1 * Step);
    Fresh.setHeatSource(H.Internal[0], 5.0 + 0.1 * Step);
    ASSERT_TRUE(Cached.stepTransient(StateA, DtS).isOk());
    ASSERT_TRUE(Fresh.stepTransient(StateB, DtS).isOk());
    for (size_t I = 0; I != StateA.size(); ++I)
      EXPECT_EQ(StateA[I], StateB[I]) << "step " << Step << " node " << I;
  }
}

TEST(ThermalEquivalenceTest, ChangingTimeStepRefactorsExactly) {
  ThermalNetwork Cached;
  buildLadder(Cached, 8);
  std::vector<double> StateA(Cached.numNodes(), 25.0);
  std::vector<double> StateB = StateA;
  for (double DtS : {1.0, 1.0, 4.0, 1.0, 0.5}) {
    ThermalNetwork Fresh;
    buildLadder(Fresh, 8);
    ASSERT_TRUE(Cached.stepTransient(StateA, DtS).isOk());
    ASSERT_TRUE(Fresh.stepTransient(StateB, DtS).isOk());
    for (size_t I = 0; I != StateA.size(); ++I)
      EXPECT_EQ(StateA[I], StateB[I]);
  }
}

//===----------------------------------------------------------------------===//
// Thermal network: sparse LDL^T path vs the dense path
//===----------------------------------------------------------------------===//

// The sparse path is tolerance-equivalent to the dense path, not bitwise:
// the fill-reducing permutation changes the elimination order. The
// tolerances mirror the hydraulic analytic-vs-FD pattern below. A
// threshold of 1 forces every solve through the sparse path; SIZE_MAX
// holds every size dense.

TEST(SparseEquivalenceTest, SteadyStateMatchesDenseAcrossLadderSizes) {
  for (int N : {8, 32, 64, 128, 256}) {
    ThermalNetwork Sparse, Dense;
    buildLadder(Sparse, N);
    buildLadder(Dense, N);
    Sparse.setSparseThreshold(1);
    Dense.setSparseThreshold(SIZE_MAX);

    Expected<std::vector<double>> A = Sparse.solveSteadyState();
    Expected<std::vector<double>> B = Dense.solveSteadyState();
    ASSERT_TRUE(A);
    ASSERT_TRUE(B);
    ASSERT_EQ(A->size(), B->size());
    for (size_t I = 0; I != A->size(); ++I)
      EXPECT_NEAR((*A)[I], (*B)[I], 1e-7 * std::max(1.0, std::fabs((*B)[I])))
          << "N=" << N << " node " << I;
    // Both must satisfy energy conservation at the same scale.
    EXPECT_NEAR(Sparse.steadyStateResidualW(*A), 0.0, 1e-6);
  }
}

TEST(SparseEquivalenceTest, TransientTrajectoriesMatchThroughEveryMutatorClass) {
  ThermalNetwork Sparse, Dense;
  LadderHandles HS = buildLadder(Sparse, 48);
  LadderHandles HD = buildLadder(Dense, 48);
  Sparse.setSparseThreshold(1);
  Dense.setSparseThreshold(SIZE_MAX);

  std::vector<double> StateA(Sparse.numNodes(), 22.0);
  std::vector<double> StateB = StateA;
  double DtS = 2.0;
  for (int Step = 0; Step != 60; ++Step) {
    // Every mutator class mid-run: conductance edit (numeric-only
    // refactorization), capacitance edit (transient numeric only), a new
    // edge (pattern change, symbolic redo), and a dt change.
    if (Step == 15) {
      Sparse.setConductance(HS.Internal[2], HS.Internal[3], 7.5);
      Dense.setConductance(HD.Internal[2], HD.Internal[3], 7.5);
    }
    if (Step == 25) {
      Sparse.setCapacitance(HS.Internal[5], 90.0);
      Dense.setCapacitance(HD.Internal[5], 90.0);
    }
    if (Step == 35) {
      Sparse.addConductance(HS.Internal[10], HS.Internal[40], 1.25);
      Dense.addConductance(HD.Internal[10], HD.Internal[40], 1.25);
    }
    if (Step == 45)
      DtS = 0.5;
    // RHS-only mutations every step keep the factors warm on both paths.
    Sparse.setHeatSource(HS.Internal[0], 5.0 + 0.1 * Step);
    Dense.setHeatSource(HD.Internal[0], 5.0 + 0.1 * Step);
    Sparse.setBoundaryTemp(HS.Boundary, 20.0 + 0.02 * Step);
    Dense.setBoundaryTemp(HD.Boundary, 20.0 + 0.02 * Step);
    ASSERT_TRUE(Sparse.stepTransient(StateA, DtS).isOk());
    ASSERT_TRUE(Dense.stepTransient(StateB, DtS).isOk());
    for (size_t I = 0; I != StateA.size(); ++I)
      EXPECT_NEAR(StateA[I], StateB[I],
                  1e-7 * std::max(1.0, std::fabs(StateB[I])))
          << "step " << Step << " node " << I;
  }
}

TEST(SparseEquivalenceTest, RhsOnlyMutationsReuseTheNumericFactor) {
  ThermalNetwork Net;
  LadderHandles H = buildLadder(Net, 160);
  Net.setSparseThreshold(1);

  // Prime both factors, then mutate only the right-hand side: the
  // telemetry factorization counter must not move (the acceptance
  // criterion for the symbolic/numeric split).
  ASSERT_TRUE(Net.solveSteadyState());
  std::vector<double> State(Net.numNodes(), 22.0);
  ASSERT_TRUE(Net.stepTransient(State, 1.0).isOk());

  telemetry::Counter &Factorizations =
      telemetry::Registry::global().counter("thermal.network.factorizations");
  telemetry::Counter &Reuses =
      telemetry::Registry::global().counter("thermal.network.factor_reuses");
  uint64_t FactorsBefore = Factorizations.value();
  uint64_t ReusesBefore = Reuses.value();
  for (int Round = 0; Round != 5; ++Round) {
    Net.setHeatSource(H.Internal[7], 10.0 + Round);
    Net.setBoundaryTemp(H.Boundary, 18.0 + 0.5 * Round);
    ASSERT_TRUE(Net.solveSteadyState());
    ASSERT_TRUE(Net.stepTransient(State, 1.0).isOk());
  }
  EXPECT_EQ(Factorizations.value(), FactorsBefore)
      << "RHS-only mutations must reuse the numeric factor";
  EXPECT_EQ(Reuses.value(), ReusesBefore + 10);
}

TEST(SparseEquivalenceTest, ConductanceEditRefactorsNumericOnly) {
  ThermalNetwork Net;
  LadderHandles H = buildLadder(Net, 160);
  Net.setSparseThreshold(1);
  ASSERT_TRUE(Net.solveSteadyState());

  telemetry::Counter &Symbolic =
      telemetry::Registry::global().counter("thermal.network.sparse_symbolic");
  telemetry::Counter &Factorizations =
      telemetry::Registry::global().counter("thermal.network.factorizations");
  uint64_t SymbolicBefore = Symbolic.value();
  uint64_t FactorsBefore = Factorizations.value();

  // Value edit on an existing edge: numeric refactorization, no symbolic.
  Net.setConductance(H.Internal[3], H.Internal[4], 9.0);
  ASSERT_TRUE(Net.solveSteadyState());
  EXPECT_EQ(Symbolic.value(), SymbolicBefore);
  EXPECT_EQ(Factorizations.value(), FactorsBefore + 1);

  // A new edge changes the pattern: the symbolic analysis must rerun.
  Net.addConductance(H.Internal[0], H.Internal[100], 0.75);
  ASSERT_TRUE(Net.solveSteadyState());
  EXPECT_EQ(Symbolic.value(), SymbolicBefore + 1);
  EXPECT_EQ(Factorizations.value(), FactorsBefore + 2);
}

TEST(SparseEquivalenceTest, SingularNetworkReportsTheSeedError) {
  // Orphan internal node: the sparse path must report the same seed
  // error message as the dense paths.
  for (bool UseSparse : {true, false}) {
    ThermalNetwork Net;
    Net.setSparseThreshold(UseSparse ? 1 : SIZE_MAX);
    Net.addBoundaryNode("sink", 20.0);
    Net.addNode("orphan", 10.0);
    Net.addNode("connected", 10.0);
    Net.addConductance(0, 2, 2.0);
    Expected<std::vector<double>> Result = Net.solveSteadyState();
    ASSERT_FALSE(Result);
    EXPECT_NE(Result.message().find("thermal network is singular"),
              std::string::npos)
        << "sparse=" << UseSparse;
  }
}

TEST(SparseEquivalenceTest, BelowThresholdStaysOnTheBitExactDensePath) {
  // With the default threshold, a small network solves dense:
  // bit-identical to a network held dense at every size.
  ThermalNetwork WithSparse, WithoutSparse;
  buildLadder(WithSparse, 16);
  buildLadder(WithoutSparse, 16);
  WithoutSparse.setSparseThreshold(SIZE_MAX);
  EXPECT_EQ(WithSparse.sparseThresholdUnknowns(),
            ThermalNetwork::DefaultSparseThresholdUnknowns);

  Expected<std::vector<double>> A = WithSparse.solveSteadyState();
  Expected<std::vector<double>> B = WithoutSparse.solveSteadyState();
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  for (size_t I = 0; I != A->size(); ++I)
    EXPECT_EQ((*A)[I], (*B)[I]);
}

TEST(SparseEquivalenceTest, SolvesSparseNamesThePathSolvesTake) {
  // The audit report's sparse_solver field records solvesSparse(), so it
  // must agree with the path each solve actually takes.
  telemetry::Counter &SparseSolves =
      telemetry::Registry::global().counter("thermal.network.sparse_solves");
  ThermalNetwork Net;
  buildLadder(Net, 16);
  auto SolveCountsSparse = [&] {
    uint64_t Before = SparseSolves.value();
    EXPECT_TRUE(Net.solveSteadyState());
    return SparseSolves.value() != Before;
  };
  EXPECT_FALSE(Net.solvesSparse()); // 16 unknowns, below the default.
  EXPECT_FALSE(SolveCountsSparse());
  Net.setSparseThreshold(16);
  EXPECT_TRUE(Net.solvesSparse());
  EXPECT_TRUE(SolveCountsSparse());
  Net.setSparseThreshold(17);
  EXPECT_FALSE(Net.solvesSparse());
  EXPECT_FALSE(SolveCountsSparse());
  // The last solve left a dense factor; a switch back to sparse must drop
  // it and factor on the sparse path, not reuse it.
  telemetry::Counter &Factorizations =
      telemetry::Registry::global().counter("thermal.network.factorizations");
  uint64_t FactorsBefore = Factorizations.value();
  Net.setSparseThreshold(1);
  EXPECT_TRUE(Net.solvesSparse());
  EXPECT_TRUE(SolveCountsSparse());
  EXPECT_EQ(Factorizations.value(), FactorsBefore + 1);
}

TEST(SparseEquivalenceTest, SparseFactorsUseLessMemoryThanDense) {
  ThermalNetwork Sparse, Dense;
  buildLadder(Sparse, 256);
  buildLadder(Dense, 256);
  Sparse.setSparseThreshold(1);
  Dense.setSparseThreshold(SIZE_MAX);
  ASSERT_TRUE(Sparse.solveSteadyState());
  ASSERT_TRUE(Dense.solveSteadyState());
  EXPECT_GT(Sparse.solverMemoryBytes(), 0u);
  EXPECT_LT(Sparse.solverMemoryBytes(), Dense.solverMemoryBytes() / 4);
}

//===----------------------------------------------------------------------===//
// Hydraulic network: analytic Jacobian and warm starts vs the FD seed path
//===----------------------------------------------------------------------===//

namespace {

FlowSolveOptions analyticOptions() {
  FlowSolveOptions Options;
  Options.Jacobian = FlowSolveOptions::JacobianKind::Analytic;
  return Options;
}

FlowSolveOptions fdOptions() {
  FlowSolveOptions Options;
  Options.Jacobian = FlowSolveOptions::JacobianKind::FiniteDifference;
  return Options;
}

} // namespace

TEST(HydraulicEquivalenceTest, AnalyticMatchesFiniteDifferenceOnRackLoops) {
  auto Water = fluids::makeWater();
  for (ManifoldLayout Layout :
       {ManifoldLayout::DirectReturn, ManifoldLayout::ReverseReturn}) {
    RackHydraulicsConfig Config;
    Config.Layout = Layout;
    RackHydraulics Rack = buildRackPrimaryLoop(Config);
    Expected<FlowSolution> Analytic =
        Rack.Network.solve(*Water, 16.0, 1e-3, analyticOptions());
    Expected<FlowSolution> Fd =
        Rack.Network.solve(*Water, 16.0, 1e-3, fdOptions());
    ASSERT_TRUE(Analytic);
    ASSERT_TRUE(Fd);
    ASSERT_EQ(Analytic->EdgeFlowsM3PerS.size(), Fd->EdgeFlowsM3PerS.size());
    // Both solves satisfy the same continuity tolerance; flows of ~1e-3
    // m^3/s must agree far inside it.
    for (size_t E = 0; E != Fd->EdgeFlowsM3PerS.size(); ++E)
      EXPECT_NEAR(Analytic->EdgeFlowsM3PerS[E], Fd->EdgeFlowsM3PerS[E], 1e-7)
          << "layout " << static_cast<int>(Layout) << " edge " << E;
  }
}

TEST(HydraulicEquivalenceTest, AnalyticMatchesFiniteDifferenceOnInternalLoop) {
  auto Oil = fluids::makeEngineeredDielectric();
  for (PlenumDesign Design :
       {PlenumDesign::UniformNarrow, PlenumDesign::TaperedReverse}) {
    InternalLoopConfig Config;
    Config.Design = Design;
    InternalLoop Loop = buildInternalLoop(Config);
    Expected<FlowSolution> Analytic =
        Loop.Network.solve(*Oil, 35.0, 2e-4, analyticOptions());
    Expected<FlowSolution> Fd =
        Loop.Network.solve(*Oil, 35.0, 2e-4, fdOptions());
    ASSERT_TRUE(Analytic);
    ASSERT_TRUE(Fd);
    for (size_t E = 0; E != Fd->EdgeFlowsM3PerS.size(); ++E)
      EXPECT_NEAR(Analytic->EdgeFlowsM3PerS[E], Fd->EdgeFlowsM3PerS[E], 1e-8)
          << "design " << static_cast<int>(Design) << " edge " << E;
  }
}

TEST(HydraulicEquivalenceTest, WarmStartReachesTheSameSolutionInFewerSteps) {
  auto Water = fluids::makeWater();
  RackHydraulics Rack = buildRackPrimaryLoop(RackHydraulicsConfig());
  Expected<FlowSolution> Cold =
      Rack.Network.solve(*Water, 16.0, 1e-3, FlowSolveOptions());
  ASSERT_TRUE(Cold);

  FlowSolveOptions Warm;
  Warm.WarmStartPressuresPa = Cold->JunctionPressuresPa;
  Expected<FlowSolution> Warmed = Rack.Network.solve(*Water, 16.0, 1e-3, Warm);
  ASSERT_TRUE(Warmed);
  EXPECT_LE(Warmed->NewtonIterations, Cold->NewtonIterations);
  for (size_t E = 0; E != Cold->EdgeFlowsM3PerS.size(); ++E)
    EXPECT_NEAR(Warmed->EdgeFlowsM3PerS[E], Cold->EdgeFlowsM3PerS[E], 1e-8);
}

TEST(HydraulicEquivalenceTest, WrongSizedWarmStartIsIgnored) {
  auto Water = fluids::makeWater();
  RackHydraulics Rack = buildRackPrimaryLoop(RackHydraulicsConfig());
  FlowSolveOptions Stale;
  Stale.WarmStartPressuresPa = {1.0, 2.0, 3.0}; // Wrong junction count.
  Expected<FlowSolution> Solution =
      Rack.Network.solve(*Water, 16.0, 1e-3, Stale);
  ASSERT_TRUE(Solution);
  Expected<FlowSolution> Reference =
      Rack.Network.solve(*Water, 16.0, 1e-3, FlowSolveOptions());
  ASSERT_TRUE(Reference);
  for (size_t E = 0; E != Reference->EdgeFlowsM3PerS.size(); ++E)
    EXPECT_EQ(Solution->EdgeFlowsM3PerS[E], Reference->EdgeFlowsM3PerS[E]);
}

//===----------------------------------------------------------------------===//
// Fluid property cache vs the exact tables
//===----------------------------------------------------------------------===//

TEST(PropertyCacheTest, UniformTableMatchesSourceOnAndOffGrid) {
  LinearTable Source{{0.0, 1.0}, {20.0, 3.0}, {60.0, 2.0}, {100.0, 5.0}};
  UniformTable Resampled(Source, 0.0, 100.0, 400); // 0.25-wide cells.
  EXPECT_EQ(Resampled.size(), 401u);
  // On-grid points (including every knot) are exact.
  for (double X = 0.0; X <= 100.0; X += 0.25)
    EXPECT_DOUBLE_EQ(Resampled.evaluate(X), Source.evaluate(X)) << X;
  // Off-grid points interpolate inside the same linear segment.
  for (double X : {0.1, 19.99, 20.01, 37.7, 59.3, 99.9})
    EXPECT_NEAR(Resampled.evaluate(X), Source.evaluate(X), 1e-12) << X;
  // Clamping matches the non-extrapolating source exactly.
  EXPECT_EQ(Resampled.evaluate(-40.0), Source.evaluate(-40.0));
  EXPECT_EQ(Resampled.evaluate(400.0), Source.evaluate(400.0));
}

TEST(PropertyCacheTest, CachedFluidPropertiesMatchExactTables) {
  std::vector<std::unique_ptr<fluids::Fluid>> Fluids;
  Fluids.push_back(fluids::makeAir());
  Fluids.push_back(fluids::makeWater());
  Fluids.push_back(fluids::makeGlycolSolution(0.3));
  Fluids.push_back(fluids::makeMineralOilMd45());
  Fluids.push_back(fluids::makeEngineeredDielectric());
  Fluids.push_back(fluids::makeWhiteMineralOil());
  for (const auto &F : Fluids) {
    auto Reference = [&](double TempC, int Property) {
      switch (Property) {
      case 0:
        return F->densityKgPerM3(TempC);
      case 1:
        return F->specificHeatJPerKgK(TempC);
      case 2:
        return F->thermalConductivityWPerMK(TempC);
      default:
        return F->dynamicViscosityPaS(TempC);
      }
    };
    // Record exact values, then flip the cache on and compare across the
    // operating range plus out-of-range clamps.
    std::vector<double> Temps;
    for (double T = F->minOperatingTempC() - 10.0;
         T <= F->maxOperatingTempC() + 10.0; T += 0.7)
      Temps.push_back(T);
    std::vector<std::vector<double>> Exact(4);
    for (int P = 0; P != 4; ++P)
      for (double T : Temps)
        Exact[P].push_back(Reference(T, P));

    ASSERT_FALSE(F->propertyCacheEnabled());
    F->enablePropertyCache();
    ASSERT_TRUE(F->propertyCacheEnabled());
    for (int P = 0; P != 4; ++P)
      for (size_t I = 0; I != Temps.size(); ++I) {
        double Cached = Reference(Temps[I], P);
        EXPECT_TRUE(approxEqual(Cached, Exact[P][I], 1e-12, 1e-300))
            << F->name() << " property " << P << " at " << Temps[I]
            << " C: cached " << Cached << " exact " << Exact[P][I];
      }
    F->disablePropertyCache();
    ASSERT_FALSE(F->propertyCacheEnabled());
    for (size_t I = 0; I != Temps.size(); ++I)
      EXPECT_EQ(Reference(Temps[I], 0), Exact[0][I]);
  }
}
