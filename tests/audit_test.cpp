//===- tests/audit_test.cpp - Physics audit layer tests -------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The audit layer's core guarantees: seed simulations close their energy
/// balance at machine-epsilon scale, deliberately broken physics trips
/// the budget alarms and the flight recorder, per-replicate audit folds
/// are bit-identical at any sweep thread count, and the `.audit.jsonl`
/// stream is well-formed.
///
//===----------------------------------------------------------------------===//

#include "audit/Audit.h"

#include "core/Designs.h"
#include "faults/Sweep.h"
#include "fluids/Fluid.h"
#include "hydraulics/Manifold.h"
#include "monitor/FlightRecorder.h"
#include "sim/RackTransient.h"
#include "sim/Transient.h"
#include "thermal/Network.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace rcs;
using namespace rcs::audit;

namespace {

std::string readWholeFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return "";
  std::string Text;
  char Buffer[4096];
  size_t Got;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Text.append(Buffer, Got);
  std::fclose(File);
  return Text;
}

} // namespace

//===----------------------------------------------------------------------===//
// Closure at machine epsilon on healthy plants
//===----------------------------------------------------------------------===//

TEST(AuditTest, ModuleTransientClosesAtMachineEps) {
  sim::TransientSimulator Simulator(core::makeSkatModule(),
                                    core::makeNominalConditions());
  Simulator.enableAudit();
  auto Trace = Simulator.run(3600.0);
  ASSERT_TRUE(Trace.hasValue()) << Trace.message();

  ASSERT_NE(Simulator.auditor(), nullptr);
  const AuditSummary &Summary = Simulator.auditor()->summary();
  EXPECT_GT(Summary.ThermalSteps, 0u);
  // Implicit-Euler closure is linear-solver round-off: far below the
  // 1e-9 warn budget, or a solver change broke conservation.
  EXPECT_LT(Summary.Energy.MaxFraction, 1e-9);
  EXPECT_LT(Summary.EnergyNode.MaxFraction, 1e-9);
  EXPECT_EQ(Summary.Energy.Violations, 0u);
  EXPECT_TRUE(Summary.withinBudgets(Simulator.auditor()->budgets()));
}

TEST(AuditTest, RackTransientClosesWithinBudgets) {
  sim::RackTransientSimulator Simulator(core::makeSkatRack(), 25.0);
  Simulator.enableAudit();
  auto Trace = Simulator.run(1800.0);
  ASSERT_TRUE(Trace.hasValue()) << Trace.message();

  const AuditSummary &Summary = Simulator.auditor()->summary();
  EXPECT_GT(Summary.ThermalSteps, 0u);
  EXPECT_LT(Summary.Energy.MaxFraction, 1e-9);
  EXPECT_LT(Summary.EnergyNode.MaxFraction, 1e-9);
  // Operator-splitting drift is genuine O(dt) physics, not round-off;
  // it must sit well inside the loose coupling budget.
  EXPECT_GT(Summary.Coupling.Samples, 0u);
  EXPECT_LT(Summary.Coupling.MaxFraction, 0.10);
  EXPECT_TRUE(Summary.withinBudgets(Simulator.auditor()->budgets()));
}

TEST(AuditTest, FlowSolutionClosesAtMachineEps) {
  hydraulics::RackHydraulicsConfig Config;
  hydraulics::RackHydraulics Rack = hydraulics::buildRackPrimaryLoop(Config);
  auto Water = fluids::makeWater();
  double FlowScale = Config.PumpRatedFlowM3PerS;
  auto Solution = Rack.Network.solve(*Water, 18.0, FlowScale);
  ASSERT_TRUE(Solution.hasValue()) << Solution.message();

  PhysicsAuditor Auditor((DriftBudgets()));
  Auditor.recordFlowSolution(Rack.Network, *Solution, *Water, 18.0,
                             FlowScale);
  const AuditSummary &Summary = Auditor.summary();
  EXPECT_EQ(Summary.FlowSolves, 1u);
  EXPECT_LT(Summary.Continuity.MaxFraction, 1e-4);
  EXPECT_LT(Summary.PressureClosure.MaxFraction, 1e-4);
  EXPECT_EQ(Summary.UnconvergedSolves, 0u);
  EXPECT_EQ(Summary.NonMonotoneResiduals, 0u);
  EXPECT_TRUE(Summary.withinBudgets(Auditor.budgets()));
}

//===----------------------------------------------------------------------===//
// Broken physics must be caught
//===----------------------------------------------------------------------===//

TEST(AuditTest, CorruptedStepStateBlowsTheEnergyBudget) {
  thermal::ThermalNetwork Net;
  thermal::NodeId Coolant = Net.addBoundaryNode("coolant", 30.0);
  thermal::NodeId Chip = Net.addNode("chip", 100.0);
  Net.addResistance(Chip, Coolant, 0.15);
  Net.addHeatSource(Chip, 90.0);

  std::vector<double> Before(Net.numNodes(), 30.0);
  std::vector<double> After = Before;
  ASSERT_TRUE(Net.stepTransient(After, 1.0).isOk());

  PhysicsAuditor Auditor((DriftBudgets()));
  EnergyClosure Honest = Auditor.recordThermalStep(Net, Before, After, 1.0);
  EXPECT_LT(Honest.Fraction, 1e-9);

  // A state the solver never produced: energy appears from nowhere.
  std::vector<double> Corrupted = After;
  Corrupted[Chip] += 5.0;
  EnergyClosure Broken =
      Auditor.recordThermalStep(Net, Before, Corrupted, 1.0);
  EXPECT_GT(Broken.Fraction, 1e-3);
  EXPECT_GT(Auditor.summary().Energy.Violations, 0u);
  EXPECT_FALSE(Auditor.summary().withinBudgets(Auditor.budgets()));
}

namespace {

/// A ladder network big enough to route through the sparse LDL^T path
/// (unknowns above the default sparse threshold).
thermal::ThermalNetwork makeSparseLadder(size_t NumInternal) {
  thermal::ThermalNetwork Net;
  thermal::NodeId Coolant = Net.addBoundaryNode("coolant", 30.0);
  thermal::NodeId Prev = Coolant;
  for (size_t I = 0; I != NumInternal; ++I) {
    thermal::NodeId Node = Net.addNode("n" + std::to_string(I),
                                       80.0 + 2.0 * (I % 11));
    Net.addConductance(Prev, Node, 1.5 + 0.05 * (I % 7));
    Net.addHeatSource(Node, 4.0 + 0.25 * (I % 5));
    Prev = Node;
  }
  return Net;
}

} // namespace

TEST(AuditTest, SparseSolvePathClosesAtMachineEps) {
  // Energy-closure coverage of the sparse path from day one: the audit
  // residuals are re-derived from the network, so they check the sparse
  // factorization end-to-end, not just against the dense path.
  thermal::ThermalNetwork Net = makeSparseLadder(256);
  ASSERT_TRUE(Net.solvesSparse());

  PhysicsAuditor Auditor((DriftBudgets()));
  Auditor.noteSparseSolver(Net.solvesSparse());
  std::vector<double> State(Net.numNodes(), 30.0);
  for (int Step = 0; Step != 20; ++Step) {
    std::vector<double> Before = State;
    ASSERT_TRUE(Net.stepTransient(State, 5.0).isOk());
    EnergyClosure Closure = Auditor.recordThermalStep(Net, Before, State, 5.0);
    EXPECT_LT(Closure.Fraction, 1e-9) << "step " << Step;
  }
  const AuditSummary &Summary = Auditor.summary();
  EXPECT_EQ(Summary.ThermalSteps, 20u);
  EXPECT_LT(Summary.Energy.MaxFraction, 1e-9);
  EXPECT_LT(Summary.EnergyNode.MaxFraction, 1e-9);
  EXPECT_TRUE(Summary.SparseSolverEnabled);
  EXPECT_TRUE(Summary.withinBudgets(Auditor.budgets()));
}

TEST(AuditTest, SparseSolvePathBreachesATightEnergyBudget) {
  // Same sparse-path plant, but with budgets squeezed below an injected
  // drift: the breach must be caught and attributed.
  thermal::ThermalNetwork Net = makeSparseLadder(256);

  DriftBudgets Tight;
  Tight.EnergyFractionWarn = units::Scalar(1e-13);
  Tight.EnergyFractionCritical = units::Scalar(1e-12);
  PhysicsAuditor Auditor(Tight);
  Auditor.noteSparseSolver(Net.solvesSparse());

  std::vector<double> State(Net.numNodes(), 30.0);
  // Corrupt one node by a milli-Kelvin each step: tiny against the
  // temperatures, huge against a 1e-12 closure budget. The alarm bank
  // debounces (DebounceSamples), so the excursion must persist across
  // several audited steps before the sensor may latch Critical.
  for (int Step = 0; Step != 4; ++Step) {
    std::vector<double> Before = State;
    ASSERT_TRUE(Net.stepTransient(State, 5.0).isOk());
    std::vector<double> Corrupted = State;
    Corrupted[5] += 1e-3;
    EnergyClosure Broken =
        Auditor.recordThermalStep(Net, Before, Corrupted, 5.0);
    EXPECT_GT(Broken.Fraction, Tight.EnergyFractionCritical.value());
    State = Corrupted;
    (void)Auditor.updateAlarms(5.0 * (Step + 1));
  }
  bool SawCritical = false;
  for (const monitor::AlarmTransition &T :
       Auditor.supervisor().allTransitions())
    SawCritical |= T.Sensor == "audit.energy_fraction" &&
                   T.To == monitor::AlarmState::Critical;
  EXPECT_TRUE(SawCritical);
  EXPECT_GT(Auditor.summary().Energy.Violations, 0u);
  EXPECT_FALSE(Auditor.summary().withinBudgets(Tight));
}

TEST(AuditTest, BudgetBreachTripsAlarmAndFlightRecorder) {
  sim::RackTransientSimulator Simulator(core::makeSkatRack(), 25.0);

  // Squeeze the coupling budget far below the plant's honest O(dt)
  // drift, the deterministic stand-in for broken physics.
  DriftBudgets Tight;
  Tight.CouplingFractionWarn = units::Scalar(1e-6);
  Tight.CouplingFractionCritical = units::Scalar(1e-5);
  Simulator.enableAudit(Tight);

  monitor::FlightRecorderConfig RecConfig;
  RecConfig.DumpPath = ::testing::TempDir() + "audit_breach_dump.jsonl";
  monitor::FlightRecorder Recorder(
      sim::RackTransientSimulator::flightChannels(), RecConfig);
  Simulator.attachFlightRecorder(&Recorder);

  auto Trace = Simulator.run(1800.0);
  ASSERT_TRUE(Trace.hasValue()) << Trace.message();

  // The audit bank saw the coupling sensor go Critical...
  bool SawCritical = false;
  for (const monitor::AlarmTransition &T :
       Simulator.auditor()->supervisor().allTransitions())
    SawCritical |= T.Sensor == "audit.coupling_fraction" &&
                   T.To == monitor::AlarmState::Critical;
  EXPECT_TRUE(SawCritical);
  EXPECT_FALSE(Simulator.auditor()->summary().withinBudgets(Tight));

  // ...and the breach dumped flight-recorder evidence with the audit
  // reason, exactly like a plant trip.
  ASSERT_TRUE(Recorder.triggered());
  ASSERT_TRUE(Recorder.dumped());
  ASSERT_TRUE(Recorder.lastDumpStatus().isOk())
      << Recorder.lastDumpStatus().message();
  std::string Dump = readWholeFile(RecConfig.DumpPath);
  EXPECT_NE(Dump.find("audit budget breach"), std::string::npos);
  std::remove(RecConfig.DumpPath.c_str());
}

//===----------------------------------------------------------------------===//
// Sweep determinism
//===----------------------------------------------------------------------===//

namespace {

faults::Scenario makeAuditSweepScenario() {
  faults::Scenario S;
  S.Name = "audit-sweep-test";
  S.DurationS = 0.5 * 3600.0;
  S.Seed = 77;
  faults::HazardSpec Hazard;
  Hazard.Kind = faults::FaultKind::PumpFailure;
  Hazard.Id = "pump";
  Hazard.MttfHours = 0.6;
  Hazard.RepairHours = 0.2;
  S.Hazards.push_back(Hazard);
  return S;
}

} // namespace

TEST(AuditSweepTest, AuditFoldIsBitIdenticalAcrossThreadCounts) {
  faults::Scenario S = makeAuditSweepScenario();
  faults::SweepConfig Serial;
  Serial.NumReplicates = 6;
  Serial.NumThreads = 1;
  faults::SweepConfig Threaded = Serial;
  Threaded.NumThreads = 4;

  auto A = faults::runSweep(S, Serial);
  auto B = faults::runSweep(S, Threaded);
  ASSERT_TRUE(A.hasValue()) << A.message();
  ASSERT_TRUE(B.hasValue()) << B.message();

  // Exact equality, not approximate: per-instance accumulators reduced
  // in replicate order make the audit fold thread-count independent.
  EXPECT_EQ(A->AuditWorstEnergyFraction, B->AuditWorstEnergyFraction);
  EXPECT_EQ(A->AuditBudgetBreaches, B->AuditBudgetBreaches);
  ASSERT_EQ(A->Replicates.size(), B->Replicates.size());
  for (size_t R = 0; R != A->Replicates.size(); ++R) {
    EXPECT_EQ(A->Replicates[R].AuditMaxEnergyFraction,
              B->Replicates[R].AuditMaxEnergyFraction);
    EXPECT_EQ(A->Replicates[R].AuditViolationCount,
              B->Replicates[R].AuditViolationCount);
    EXPECT_EQ(A->Replicates[R].AuditWithinBudget,
              B->Replicates[R].AuditWithinBudget);
  }
}

TEST(AuditSweepTest, HealthySolverStackAuditsCleanUnderFaults) {
  // Fault injection stresses the plant, not the numerics: even a pump
  // failure replicate must keep conservation at round-off scale.
  auto Report =
      faults::runSweep(makeAuditSweepScenario(), faults::SweepConfig());
  ASSERT_TRUE(Report.hasValue()) << Report.message();
  EXPECT_GT(Report->Replicates.size(), 0u);
  EXPECT_EQ(Report->AuditBudgetBreaches, 0);
  EXPECT_LT(Report->AuditWorstEnergyFraction, 1e-9);
  for (const faults::ReplicateSummary &R : Report->Replicates)
    EXPECT_TRUE(R.AuditWithinBudget);
}

//===----------------------------------------------------------------------===//
// Stream round-trip
//===----------------------------------------------------------------------===//

TEST(AuditTest, StreamEmitsHeaderSamplesAndSummary) {
  std::string Path = ::testing::TempDir() + "audit_stream_test.jsonl";
  sim::TransientSimulator Simulator(core::makeSkatModule(),
                                    core::makeNominalConditions());
  Simulator.enableAudit();
  ASSERT_TRUE(Simulator.auditor()->attachStream(Path).isOk());
  EXPECT_TRUE(Simulator.auditor()->streaming());

  auto Trace = Simulator.run(600.0);
  ASSERT_TRUE(Trace.hasValue()) << Trace.message();
  ASSERT_TRUE(Simulator.auditor()->finishStream().isOk());

  std::string Text = readWholeFile(Path);
  EXPECT_NE(Text.find("\"audit_trace_header\""), std::string::npos);
  EXPECT_NE(Text.find("\"skatsim-audit-v1\""), std::string::npos);
  EXPECT_NE(Text.find("\"audit_sample\""), std::string::npos);
  EXPECT_NE(Text.find("\"audit_summary\""), std::string::npos);
  EXPECT_NE(Text.find("\"within_budget\": true"), std::string::npos);
  std::remove(Path.c_str());
}
