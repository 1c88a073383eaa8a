//===- audit/Audit.cpp - Physics & solver invariant auditing --------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "audit/Audit.h"

#include "monitor/Alarm.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace rcs {
namespace audit {

namespace {

/// Formats \p V for JSON output. Non-finite drift (a diverged state fed
/// back into the audit) is rendered as the sentinel 9e99 so the document
/// stays parseable while the verdict still fails every budget.
void appendJsonNumber(std::string &Out, double V) {
  char Buf[40];
  if (!std::isfinite(V)) {
    std::snprintf(Buf, sizeof(Buf), "9e99");
  } else {
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  }
  Out += Buf;
}

const char *verdictFor(const DriftStats &Stats, double WarnFraction,
                       double CriticalFraction) {
  if (Stats.MaxFraction > CriticalFraction)
    return "FAIL";
  if (Stats.MaxFraction > WarnFraction)
    return "WARN";
  return "PASS";
}

struct InvariantRow {
  const char *Name;
  const char *Unit;
  const DriftStats *Stats;
  double WarnFraction;
  double CriticalFraction;
};

/// The five drift invariants in report order. \p Summary and \p Budgets
/// must outlive the returned rows.
std::vector<InvariantRow> invariantRows(const AuditSummary &Summary,
                                        const DriftBudgets &Budgets) {
  return {
      {"energy_balance", "W", &Summary.Energy,
       Budgets.EnergyFractionWarn.value(),
       Budgets.EnergyFractionCritical.value()},
      {"energy_balance_per_node", "W", &Summary.EnergyNode,
       Budgets.EnergyNodeFractionWarn.value(),
       Budgets.EnergyNodeFractionCritical.value()},
      {"coupling_drift", "W", &Summary.Coupling,
       Budgets.CouplingFractionWarn.value(),
       Budgets.CouplingFractionCritical.value()},
      {"flow_continuity", "m3_per_s", &Summary.Continuity,
       Budgets.ContinuityFractionWarn.value(),
       Budgets.ContinuityFractionCritical.value()},
      {"pressure_closure", "Pa", &Summary.PressureClosure,
       Budgets.PressureFractionWarn.value(),
       Budgets.PressureFractionCritical.value()},
  };
}

} // namespace

bool AuditSummary::withinBudgets(const DriftBudgets &Budgets) const {
  for (const InvariantRow &Row : invariantRows(*this, Budgets))
    if (Row.Stats->MaxFraction > Row.CriticalFraction)
      return false;
  if (UnconvergedSolves > 0)
    return false;
  return MaxNewtonIterations <= Budgets.NewtonIterationsCritical;
}

//===----------------------------------------------------------------------===//
// Alarm bank
//===----------------------------------------------------------------------===//

monitor::Supervisor makeAuditSupervisor(const DriftBudgets &Budgets,
                                        telemetry::Registry *Reg) {
  auto FractionAlarm = [&Budgets](units::Scalar Warn, units::Scalar Critical) {
    monitor::AlarmConfig Config;
    Config.WarnThreshold = Warn.value();
    Config.CriticalThreshold = Critical.value();
    Config.HighIsBad = true;
    Config.Hysteresis = 0.1 * Warn.value();
    Config.DebounceSamples = Budgets.DebounceSamples;
    Config.LatchCritical = Budgets.LatchCritical;
    return Config;
  };
  monitor::AlarmConfig NewtonAlarm;
  NewtonAlarm.WarnThreshold = Budgets.NewtonIterationsWarn;
  NewtonAlarm.CriticalThreshold = Budgets.NewtonIterationsCritical;
  NewtonAlarm.HighIsBad = true;
  NewtonAlarm.Hysteresis = 1.0;
  NewtonAlarm.DebounceSamples = Budgets.DebounceSamples;
  NewtonAlarm.LatchCritical = Budgets.LatchCritical;

  std::vector<std::pair<std::string, monitor::AlarmConfig>> Sensors;
  Sensors.emplace_back("audit.energy_fraction",
                       FractionAlarm(Budgets.EnergyFractionWarn,
                                     Budgets.EnergyFractionCritical));
  Sensors.emplace_back("audit.energy_node_fraction",
                       FractionAlarm(Budgets.EnergyNodeFractionWarn,
                                     Budgets.EnergyNodeFractionCritical));
  Sensors.emplace_back("audit.coupling_fraction",
                       FractionAlarm(Budgets.CouplingFractionWarn,
                                     Budgets.CouplingFractionCritical));
  Sensors.emplace_back("audit.continuity_fraction",
                       FractionAlarm(Budgets.ContinuityFractionWarn,
                                     Budgets.ContinuityFractionCritical));
  Sensors.emplace_back("audit.pressure_fraction",
                       FractionAlarm(Budgets.PressureFractionWarn,
                                     Budgets.PressureFractionCritical));
  Sensors.emplace_back("audit.newton_iterations", NewtonAlarm);
  return monitor::Supervisor(std::move(Sensors), Reg);
}

//===----------------------------------------------------------------------===//
// Record stream
//===----------------------------------------------------------------------===//

struct PhysicsAuditor::Stream {
  std::FILE *File = nullptr;
  std::string Path;
  bool WriteFailed = false;

  ~Stream() {
    if (File)
      std::fclose(File);
  }

  void line(const std::string &Text) {
    if (!File)
      return;
    if (std::fputs(Text.c_str(), File) < 0 || std::fputc('\n', File) == EOF)
      WriteFailed = true;
  }
};

//===----------------------------------------------------------------------===//
// PhysicsAuditor
//===----------------------------------------------------------------------===//

PhysicsAuditor::PhysicsAuditor(const DriftBudgets &Budgets,
                               telemetry::Registry *Reg)
    : Budgets(Budgets),
      Reg(Reg ? Reg : &telemetry::Registry::global()),
      Bank(std::make_unique<monitor::Supervisor>(
          makeAuditSupervisor(Budgets, this->Reg))) {
  telemetry::Registry &R = *this->Reg;
  ThermalStepCount = &R.counter("audit.energy.steps");
  FlowSolveCount = &R.counter("audit.flow.solves");
  ViolationCount = &R.counter("audit.budget.violations");
  BreachCount = &R.counter("audit.alarm.breaches");
  EnergyFractionGauge = &R.gauge("audit.energy.max_fraction");
  ContinuityFractionGauge = &R.gauge("audit.continuity.max_fraction");
  PressureFractionGauge = &R.gauge("audit.pressure_closure.max_fraction");
  CouplingFractionGauge = &R.gauge("audit.coupling.max_fraction");
  EnergyResidualHist = &R.histogram("audit.energy.residual_w");
  ContinuityHist = &R.histogram("audit.flow.continuity_m3s");
  PressureClosureHist = &R.histogram("audit.flow.pressure_closure_pa");
  NewtonIterationsHist = &R.histogram("audit.newton.iterations");

  Bank->setTransitionCallback([this](const monitor::AlarmTransition &T) {
    if (Out && Out->File) {
      std::string Line = "{\"kind\": \"audit_alarm\", \"t_s\": ";
      appendJsonNumber(Line, T.TimeS);
      Line += ", \"sensor\": \"" + T.Sensor + "\", \"from\": \"";
      Line += monitor::alarmStateName(T.From);
      Line += "\", \"to\": \"";
      Line += monitor::alarmStateName(T.To);
      Line += "\", \"value\": ";
      appendJsonNumber(Line, T.Value);
      Line += "}";
      Out->line(Line);
    }
    if (T.To == monitor::AlarmState::Critical) {
      BreachCount->add();
      if (OnCritical)
        OnCritical(T.Sensor, T.TimeS);
    }
  });
}

PhysicsAuditor::~PhysicsAuditor() = default;

void PhysicsAuditor::bumpViolation(DriftStats &Stats, double Fraction,
                                   double WarnFraction) {
  if (Fraction > WarnFraction) {
    ++Stats.Violations;
    ViolationCount->add();
  }
}

EnergyClosure
PhysicsAuditor::recordThermalStep(const thermal::ThermalNetwork &Net,
                                  const std::vector<double> &Before,
                                  const std::vector<double> &After,
                                  double DtS) {
  EnergyClosure Closure;
  std::vector<double> Residuals = Net.transientResidualsW(Before, After, DtS);
  double Global = 0.0;
  double WorstNode = 0.0;
  for (double R : Residuals) {
    Global += R;
    WorstNode = std::max(WorstNode, std::fabs(R));
  }
  Closure.ResidualW = Global;
  Closure.MaxNodeResidualW = WorstNode;
  Closure.ThroughputW = Net.totalSourcePowerW();
  double Scale = std::max(std::fabs(Closure.ThroughputW),
                          Budgets.ThroughputFloor.value());
  Closure.Fraction = std::fabs(Global) / Scale;
  double NodeFraction = WorstNode / Scale;

  ++Summary.ThermalSteps;
  ++Summary.Energy.Samples;
  Summary.Energy.MaxAbs = std::max(Summary.Energy.MaxAbs, std::fabs(Global));
  Summary.Energy.SumAbs += std::fabs(Global);
  Summary.Energy.MaxFraction =
      std::max(Summary.Energy.MaxFraction, Closure.Fraction);
  bumpViolation(Summary.Energy, Closure.Fraction,
                Budgets.EnergyFractionWarn.value());

  ++Summary.EnergyNode.Samples;
  Summary.EnergyNode.MaxAbs = std::max(Summary.EnergyNode.MaxAbs, WorstNode);
  Summary.EnergyNode.SumAbs += WorstNode;
  Summary.EnergyNode.MaxFraction =
      std::max(Summary.EnergyNode.MaxFraction, NodeFraction);
  bumpViolation(Summary.EnergyNode, NodeFraction,
                Budgets.EnergyNodeFractionWarn.value());

  LastEnergyFraction = Closure.Fraction;
  LastEnergyNodeFraction = NodeFraction;
  LastEnergyResidualW = Global;

  ThermalStepCount->add();
  EnergyResidualHist->record(Global);
  EnergyFractionGauge->set(Summary.Energy.MaxFraction);
  return Closure;
}

void PhysicsAuditor::recordCouplingDrift(double DriftW, double ThroughputW) {
  double Scale =
      std::max(std::fabs(ThroughputW), Budgets.ThroughputFloor.value());
  double Fraction = std::fabs(DriftW) / Scale;
  ++Summary.Coupling.Samples;
  Summary.Coupling.MaxAbs = std::max(Summary.Coupling.MaxAbs,
                                     std::fabs(DriftW));
  Summary.Coupling.SumAbs += std::fabs(DriftW);
  Summary.Coupling.MaxFraction =
      std::max(Summary.Coupling.MaxFraction, Fraction);
  bumpViolation(Summary.Coupling, Fraction,
                Budgets.CouplingFractionWarn.value());
  LastCouplingFraction = Fraction;
  LastCouplingDriftW = DriftW;
  CouplingFractionGauge->set(Summary.Coupling.MaxFraction);
}

void PhysicsAuditor::recordFlowSolution(const hydraulics::FlowNetwork &Net,
                                        const hydraulics::FlowSolution &Sol,
                                        const fluids::Fluid &F, double TempC,
                                        double FlowScaleM3PerS) {
  size_t NumJunctions = Net.numJunctions();
  size_t NumEdges = Net.numEdges();
  if (Sol.EdgeFlowsM3PerS.size() != NumEdges ||
      Sol.JunctionPressuresPa.size() != NumJunctions)
    return; // Solution from a different network; nothing to audit.

  // Junction continuity, recomputed from the edge flows (not trusted from
  // the solver's own MaxContinuityErrorM3PerS).
  std::vector<double> NetInflow(NumJunctions, 0.0);
  for (size_t E = 0; E != NumEdges; ++E) {
    double Q = Sol.EdgeFlowsM3PerS[E];
    NetInflow[Net.edgeFrom(E)] -= Q;
    NetInflow[Net.edgeTo(E)] += Q;
  }
  double WorstContinuity = 0.0;
  for (double Inflow : NetInflow)
    WorstContinuity = std::max(WorstContinuity, std::fabs(Inflow));
  double FlowScale = std::max(FlowScaleM3PerS, 1e-12);
  double ContinuityFraction = WorstContinuity / FlowScale;

  // Per-edge pressure closure: the solved flow must reproduce the nodal
  // pressure difference through the edge's own dP(Q) relation.
  double WorstClosure = 0.0;
  double PressureScale = 1.0;
  for (size_t E = 0; E != NumEdges; ++E) {
    double DropPa = Net.edgePressureDropPa(E, Sol.EdgeFlowsM3PerS[E], F,
                                           TempC);
    double NodalPa = Sol.JunctionPressuresPa[Net.edgeFrom(E)] -
                     Sol.JunctionPressuresPa[Net.edgeTo(E)];
    WorstClosure = std::max(WorstClosure, std::fabs(DropPa - NodalPa));
    PressureScale = std::max(PressureScale, std::fabs(DropPa));
  }
  for (double P : Sol.JunctionPressuresPa)
    PressureScale = std::max(PressureScale, std::fabs(P));
  double PressureFraction = WorstClosure / PressureScale;

  // Convergence health: iteration count, residual-trajectory monotonicity
  // and the final residual against the solver's own tolerance.
  double Tolerance = std::max(1e-10, 1e-6 * FlowScaleM3PerS);
  bool Monotone = true;
  for (size_t I = 1; I < Sol.ResidualHistory.size(); ++I)
    if (Sol.ResidualHistory[I] > Sol.ResidualHistory[I - 1])
      Monotone = false;
  bool Converged = Sol.ResidualHistory.empty() ||
                   Sol.ResidualHistory.back() <= Tolerance;

  ++Summary.FlowSolves;
  ++Summary.Continuity.Samples;
  Summary.Continuity.MaxAbs =
      std::max(Summary.Continuity.MaxAbs, WorstContinuity);
  Summary.Continuity.SumAbs += WorstContinuity;
  Summary.Continuity.MaxFraction =
      std::max(Summary.Continuity.MaxFraction, ContinuityFraction);
  bumpViolation(Summary.Continuity, ContinuityFraction,
                Budgets.ContinuityFractionWarn.value());

  ++Summary.PressureClosure.Samples;
  Summary.PressureClosure.MaxAbs =
      std::max(Summary.PressureClosure.MaxAbs, WorstClosure);
  Summary.PressureClosure.SumAbs += WorstClosure;
  Summary.PressureClosure.MaxFraction =
      std::max(Summary.PressureClosure.MaxFraction, PressureFraction);
  bumpViolation(Summary.PressureClosure, PressureFraction,
                Budgets.PressureFractionWarn.value());

  Summary.MaxNewtonIterations =
      std::max(Summary.MaxNewtonIterations, Sol.NewtonIterations);
  if (!Monotone)
    ++Summary.NonMonotoneResiduals;
  if (!Converged)
    ++Summary.UnconvergedSolves;

  LastContinuityFraction = ContinuityFraction;
  LastPressureFraction = PressureFraction;
  LastNewtonIterationCount = Sol.NewtonIterations;
  LastContinuityErrM3PerS = WorstContinuity;
  LastPressureClosurePa = WorstClosure;

  FlowSolveCount->add();
  ContinuityHist->record(WorstContinuity);
  PressureClosureHist->record(WorstClosure);
  NewtonIterationsHist->record(Sol.NewtonIterations);
  ContinuityFractionGauge->set(Summary.Continuity.MaxFraction);
  PressureFractionGauge->set(Summary.PressureClosure.MaxFraction);
}

monitor::SupervisoryReport PhysicsAuditor::updateAlarms(double TimeS) {
  double Values[6] = {LastEnergyFraction,     LastEnergyNodeFraction,
                      LastCouplingFraction,   LastContinuityFraction,
                      LastPressureFraction,   LastNewtonIterationCount};
  return Bank->update(TimeS, Values, 6);
}

void PhysicsAuditor::setCriticalCallback(
    std::function<void(const std::string &Sensor, double TimeS)> Callback) {
  OnCritical = std::move(Callback);
}

Status PhysicsAuditor::attachStream(const std::string &Path) {
  auto NewStream = std::make_unique<Stream>();
  NewStream->File = std::fopen(Path.c_str(), "w");
  if (!NewStream->File)
    return Status::error("cannot open audit stream '" + Path + "'");
  NewStream->Path = Path;
  Out = std::move(NewStream);
  Out->line("{\"kind\": \"audit_trace_header\", "
            "\"schema\": \"skatsim-audit-v1\", \"invariants\": "
            "[\"energy_balance\", \"energy_balance_per_node\", "
            "\"coupling_drift\", \"flow_continuity\", \"pressure_closure\", "
            "\"newton_health\"]}");
  return Status::ok();
}

bool PhysicsAuditor::streaming() const { return Out && Out->File; }

void PhysicsAuditor::emitStreamRecord(double TimeS) {
  if (!streaming())
    return;
  std::string Line = "{\"kind\": \"audit_sample\", \"t_s\": ";
  appendJsonNumber(Line, TimeS);
  Line += ", \"energy_residual_w\": ";
  appendJsonNumber(Line, LastEnergyResidualW);
  Line += ", \"energy_fraction\": ";
  appendJsonNumber(Line, LastEnergyFraction);
  Line += ", \"coupling_drift_w\": ";
  appendJsonNumber(Line, LastCouplingDriftW);
  Line += ", \"continuity_m3_per_s\": ";
  appendJsonNumber(Line, LastContinuityErrM3PerS);
  Line += ", \"pressure_closure_pa\": ";
  appendJsonNumber(Line, LastPressureClosurePa);
  Line += ", \"newton_iterations\": ";
  appendJsonNumber(Line, LastNewtonIterationCount);
  rcsystem::AlarmLevel Worst = rcsystem::AlarmLevel::Normal;
  for (size_t I = 0, E = Bank->numSensors(); I != E; ++I)
    Worst = std::max(Worst, Bank->sensor(I).level());
  Line += ", \"worst_level\": \"";
  switch (Worst) {
  case rcsystem::AlarmLevel::Normal:
    Line += "normal";
    break;
  case rcsystem::AlarmLevel::Warning:
    Line += "warning";
    break;
  case rcsystem::AlarmLevel::Critical:
    Line += "critical";
    break;
  }
  Line += "\"}";
  Out->line(Line);
}

Status PhysicsAuditor::finishStream() {
  if (!Out)
    return Status::ok();
  std::string Line = "{\"kind\": \"audit_summary\", \"thermal_steps\": " +
                     std::to_string(Summary.ThermalSteps) +
                     ", \"flow_solves\": " +
                     std::to_string(Summary.FlowSolves) +
                     ", \"energy_max_fraction\": ";
  appendJsonNumber(Line, Summary.Energy.MaxFraction);
  Line += ", \"continuity_max_fraction\": ";
  appendJsonNumber(Line, Summary.Continuity.MaxFraction);
  Line += ", \"pressure_max_fraction\": ";
  appendJsonNumber(Line, Summary.PressureClosure.MaxFraction);
  Line += ", \"coupling_max_fraction\": ";
  appendJsonNumber(Line, Summary.Coupling.MaxFraction);
  Line += ", \"within_budget\": ";
  Line += Summary.withinBudgets(Budgets) ? "true" : "false";
  Line += "}";
  Out->line(Line);
  bool Failed = Out->WriteFailed;
  std::string Path = Out->Path;
  Out.reset();
  if (Failed)
    return Status::error("write error on audit stream '" + Path + "'");
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

std::string formatClosureTable(const AuditSummary &Summary,
                               const DriftBudgets &Budgets) {
  std::string Table;
  char Row[160];
  std::snprintf(Row, sizeof(Row), "%-24s %8s %12s %12s %10s %10s %s\n",
                "invariant", "samples", "max abs", "max frac", "warn",
                "critical", "verdict");
  Table += Row;
  for (const InvariantRow &Inv : invariantRows(Summary, Budgets)) {
    std::snprintf(Row, sizeof(Row),
                  "%-24s %8llu %10.3e %s %12.3e %10.1e %10.1e %s\n",
                  Inv.Name,
                  static_cast<unsigned long long>(Inv.Stats->Samples),
                  Inv.Stats->MaxAbs, Inv.Unit, Inv.Stats->MaxFraction,
                  Inv.WarnFraction, Inv.CriticalFraction,
                  verdictFor(*Inv.Stats, Inv.WarnFraction,
                             Inv.CriticalFraction));
    Table += Row;
  }
  const char *NewtonVerdict =
      Summary.UnconvergedSolves > 0 ||
              Summary.MaxNewtonIterations > Budgets.NewtonIterationsCritical
          ? "FAIL"
          : (Summary.MaxNewtonIterations > Budgets.NewtonIterationsWarn
                 ? "WARN"
                 : "PASS");
  std::snprintf(Row, sizeof(Row),
                "%-24s %8llu max %d iter, %llu non-monotone, %llu "
                "unconverged, sparse %s  %s\n",
                "newton_health",
                static_cast<unsigned long long>(Summary.FlowSolves),
                Summary.MaxNewtonIterations,
                static_cast<unsigned long long>(Summary.NonMonotoneResiduals),
                static_cast<unsigned long long>(Summary.UnconvergedSolves),
                Summary.SparseSolverEnabled ? "on" : "off", NewtonVerdict);
  Table += Row;
  return Table;
}

Status writeAuditReport(const std::string &Path, const std::string &Command,
                        const AuditSummary &Summary,
                        const DriftBudgets &Budgets) {
  std::string Doc = "{\n  \"schema\": \"skatsim-audit-v1\",\n  \"command\": \"" +
                    Command + "\",\n  \"within_budget\": ";
  Doc += Summary.withinBudgets(Budgets) ? "true" : "false";
  Doc += ",\n  \"invariants\": [\n";
  bool First = true;
  for (const InvariantRow &Inv : invariantRows(Summary, Budgets)) {
    if (!First)
      Doc += ",\n";
    First = false;
    Doc += "    {\"name\": \"";
    Doc += Inv.Name;
    Doc += "\", \"unit\": \"";
    Doc += Inv.Unit;
    Doc += "\", \"samples\": " + std::to_string(Inv.Stats->Samples) +
           ", \"max_abs\": ";
    appendJsonNumber(Doc, Inv.Stats->MaxAbs);
    Doc += ", \"mean_abs\": ";
    appendJsonNumber(Doc, Inv.Stats->meanAbs());
    Doc += ", \"max_fraction\": ";
    appendJsonNumber(Doc, Inv.Stats->MaxFraction);
    Doc += ", \"warn_fraction\": ";
    appendJsonNumber(Doc, Inv.WarnFraction);
    Doc += ", \"critical_fraction\": ";
    appendJsonNumber(Doc, Inv.CriticalFraction);
    Doc += ", \"violations\": " + std::to_string(Inv.Stats->Violations) +
           ", \"within_budget\": ";
    Doc += Inv.Stats->MaxFraction <= Inv.CriticalFraction ? "true" : "false";
    Doc += "}";
  }
  Doc += "\n  ],\n  \"convergence\": {\"thermal_steps\": " +
         std::to_string(Summary.ThermalSteps) +
         ", \"flow_solves\": " + std::to_string(Summary.FlowSolves) +
         ", \"max_newton_iterations\": " +
         std::to_string(Summary.MaxNewtonIterations) +
         ", \"non_monotone_residuals\": " +
         std::to_string(Summary.NonMonotoneResiduals) +
         ", \"unconverged_solves\": " +
         std::to_string(Summary.UnconvergedSolves) +
         ", \"sparse_solver\": ";
  Doc += Summary.SparseSolverEnabled ? "true" : "false";
  Doc += "}\n}\n";

  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return Status::error("cannot open audit report '" + Path + "'");
  bool Failed = std::fputs(Doc.c_str(), File) < 0;
  Failed |= std::fclose(File) != 0;
  if (Failed)
    return Status::error("write error on audit report '" + Path + "'");
  return Status::ok();
}

} // namespace audit
} // namespace rcs
