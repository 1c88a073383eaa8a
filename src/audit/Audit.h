//===- audit/Audit.h - Physics & solver invariant auditing ------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime invariant monitoring for the solvers: every transient step and
/// hydraulic solve can be checked against the conservation laws the model
/// is built on, with the drift budgeted instead of assumed.
///
/// Three invariant families are audited (docs/AUDIT.md):
///  - energy balance: per-control-volume and global closure of each
///    implicit-Euler thermal step (stored + transported + sourced vs.
///    boundary flux), in watts and as a fraction of throughput;
///  - flow continuity: junction mass balance recomputed from the edge
///    flows of a FlowSolution, plus per-edge pressure-drop closure
///    against the solved nodal pressures;
///  - convergence health: Newton iteration counts, residual-trajectory
///    monotonicity and final-residual tolerance, and thermal factor-cache
///    configuration.
///
/// A PhysicsAuditor accumulates deterministic per-instance statistics
/// (safe to fold into bit-identical sweep reports), bumps `audit.*`
/// metrics in a telemetry registry, streams self-identifying
/// `.audit.jsonl` records, and drives a debounced monitor::Supervisor
/// alarm bank so a budget breach trips the flight recorder exactly like a
/// plant trip.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_AUDIT_AUDIT_H
#define RCS_AUDIT_AUDIT_H

#include "hydraulics/FlowNetwork.h"
#include "monitor/Supervisor.h"
#include "support/Quantity.h"
#include "support/Status.h"
#include "thermal/Network.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace rcs {
namespace audit {

/// Configurable drift budgets, typed from day one (support/Quantity.h).
/// Every budget is expressed as a dimensionless fraction of the audited
/// quantity's natural scale so one set of budgets spans module- and
/// rack-sized models; the warn level feeds the alarm bank's Warning band
/// and the critical level its Critical band.
struct DriftBudgets {
  /// Global energy-closure residual as a fraction of total throughput.
  /// Implicit-Euler steps close to linear-solver round-off (~1e-13 of
  /// throughput at 512 unknowns), so anything past 1e-9 means a solver
  /// change broke conservation.
  units::Scalar EnergyFractionWarn{1e-9};
  units::Scalar EnergyFractionCritical{1e-6};

  /// Worst per-control-volume residual, same normalization.
  units::Scalar EnergyNodeFractionWarn{1e-9};
  units::Scalar EnergyNodeFractionCritical{1e-6};

  /// Floor on the throughput normalization so idle plants do not divide
  /// by zero.
  units::Watts ThroughputFloor{1.0};

  /// Operator-splitting drift of explicitly coupled loops (the rack
  /// water-inventory update uses begin-of-step oil temperatures), as a
  /// fraction of throughput. This is genuine O(dt) physics drift, not
  /// round-off, so its budget is loose.
  units::Scalar CouplingFractionWarn{0.10};
  units::Scalar CouplingFractionCritical{0.35};

  /// Worst junction continuity error as a fraction of the solve's flow
  /// scale. The Newton tolerance is 1e-6 of the flow scale; the reference
  /// junction can accumulate the other junctions' slack.
  units::Scalar ContinuityFractionWarn{1e-4};
  units::Scalar ContinuityFractionCritical{1e-2};

  /// Worst per-edge pressure closure |dP(Q) - (P_from - P_to)| as a
  /// fraction of the solution's pressure scale.
  units::Scalar PressureFractionWarn{1e-4};
  units::Scalar PressureFractionCritical{1e-2};

  /// Newton iteration budgets (warm-started solves run in 1-2).
  int NewtonIterationsWarn = 24;
  int NewtonIterationsCritical = 48;

  /// Alarm debouncing for the audit bank.
  int DebounceSamples = 2;
  bool LatchCritical = true;
};

/// Rolling statistics of one audited invariant. MaxAbs/SumAbs are in the
/// invariant's physical unit (W, m^3/s, Pa — see the owning field);
/// fractions are normalized by the invariant's scale.
struct DriftStats {
  uint64_t Samples = 0;
  double MaxAbs = 0.0;
  double SumAbs = 0.0;
  double MaxFraction = 0.0;
  /// Samples whose fraction exceeded the warn budget.
  uint64_t Violations = 0;

  double meanAbs() const {
    return Samples ? SumAbs / static_cast<double>(Samples) : 0.0;
  }
};

/// Deterministic per-run audit totals. Plain data: copies fold into
/// faults::Sweep replicate summaries index-ordered, so reports stay
/// bit-identical at any thread count.
struct AuditSummary {
  DriftStats Energy;          ///< Global step closure, W.
  DriftStats EnergyNode;      ///< Worst per-control-volume closure, W.
  DriftStats Coupling;        ///< Operator-splitting drift, W.
  DriftStats Continuity;      ///< Junction continuity, m^3/s.
  DriftStats PressureClosure; ///< Edge pressure closure, Pa.

  uint64_t ThermalSteps = 0;
  uint64_t FlowSolves = 0;
  int MaxNewtonIterations = 0;
  uint64_t NonMonotoneResiduals = 0;
  uint64_t UnconvergedSolves = 0;
  /// True when the audited thermal solves took the sparse path; false
  /// when they solved dense or no thermal network was audited.
  bool SparseSolverEnabled = false;

  /// True when every invariant stayed at or below its critical budget and
  /// every hydraulic solve converged.
  bool withinBudgets(const DriftBudgets &Budgets) const;
};

/// One step's energy-closure numbers, returned for span attributes.
struct EnergyClosure {
  double ResidualW = 0.0;     ///< Signed global closure residual.
  double MaxNodeResidualW = 0.0;
  double ThroughputW = 0.0;   ///< Source power the fractions normalize by.
  double Fraction = 0.0;      ///< |ResidualW| / max(ThroughputW, floor).
};

/// Runtime invariant monitor. One instance per simulator (or per audited
/// scope); not thread-safe, matching the simulators it rides along with.
class PhysicsAuditor {
public:
  /// \p Reg defaults to the process-wide registry; metrics land under
  /// `audit.*`. The alarm bank is created immediately (Normal until fed).
  explicit PhysicsAuditor(const DriftBudgets &Budgets,
                          telemetry::Registry *Reg = nullptr);
  ~PhysicsAuditor();
  PhysicsAuditor(const PhysicsAuditor &) = delete;
  PhysicsAuditor &operator=(const PhysicsAuditor &) = delete;

  const DriftBudgets &budgets() const { return Budgets; }
  const AuditSummary &summary() const { return Summary; }

  /// Audits one implicit-Euler step of \p Net that advanced \p Before to
  /// \p After over \p DtS. Returns the closure numbers so the caller can
  /// attach them as span attributes.
  EnergyClosure recordThermalStep(const thermal::ThermalNetwork &Net,
                                  const std::vector<double> &Before,
                                  const std::vector<double> &After,
                                  double DtS);

  /// Audits the operator-splitting drift of an explicitly coupled loop:
  /// \p DriftW is the imbalance between the flux the coupled update used
  /// and the flux the implicit steps actually transported, normalized by
  /// \p ThroughputW.
  void recordCouplingDrift(double DriftW, double ThroughputW);

  /// Audits a hydraulic solution against its network: junction continuity
  /// recomputed from edge flows, per-edge pressure closure, and Newton
  /// convergence health. \p FlowScaleM3PerS must match the solve call.
  void recordFlowSolution(const hydraulics::FlowNetwork &Net,
                          const hydraulics::FlowSolution &Sol,
                          const fluids::Fluid &F, double TempC,
                          double FlowScaleM3PerS);

  /// Records whether the thermal solves take the sparse path (once per
  /// run; pass ThermalNetwork::solvesSparse()), so reports say which
  /// linear-algebra path produced the audited residuals.
  void noteSparseSolver(bool Enabled) {
    Summary.SparseSolverEnabled = Enabled;
  }

  /// Feeds the alarm bank the latest per-invariant fractions (sensor
  /// order: energy, energy_node, coupling, continuity, pressure_closure,
  /// newton_iterations) and returns the sweep report. Call at the control
  /// cadence of the owning simulator.
  monitor::SupervisoryReport updateAlarms(double TimeS);

  /// Invoked once per alarm transition whose new level is Critical, with
  /// the sensor name and time — wire this to FlightRecorder::trigger so
  /// budget breaches dump evidence like plant trips.
  ///
  /// Threading: the callback fires synchronously on the thread calling
  /// updateAlarms(). An auditor is thread-confined to its simulator —
  /// sweep replicates each own one — so the callback needs no internal
  /// locking, but any state it shares across replicates must be atomic
  /// or `RCS_GUARDED_BY` an `rcs::Mutex` (support/ThreadSafety.h).
  void setCriticalCallback(
      std::function<void(const std::string &Sensor, double TimeS)> Callback);

  monitor::Supervisor &supervisor() { return *Bank; }
  const monitor::Supervisor &supervisor() const { return *Bank; }

  /// \name Record stream
  /// Self-identifying `.audit.jsonl` stream (schema skatsim-audit-v1;
  /// validated by tools/check_trace): one header line, one
  /// `audit_sample` line per emit call, alarm transitions as
  /// `audit_alarm` lines, and a closing `audit_summary` line.
  /// @{
  Status attachStream(const std::string &Path);
  bool streaming() const;
  void emitStreamRecord(double TimeS);
  Status finishStream();
  /// @}

private:
  struct Stream;
  void bumpViolation(DriftStats &Stats, double Fraction, double WarnFraction);

  DriftBudgets Budgets;
  telemetry::Registry *Reg;
  AuditSummary Summary;
  std::unique_ptr<monitor::Supervisor> Bank;
  std::function<void(const std::string &, double)> OnCritical;
  std::unique_ptr<Stream> Out;

  // Latest per-invariant readings fed to the alarm bank.
  double LastEnergyFraction = 0.0;
  double LastEnergyNodeFraction = 0.0;
  double LastCouplingFraction = 0.0;
  double LastContinuityFraction = 0.0;
  double LastPressureFraction = 0.0;
  double LastNewtonIterationCount = 0.0;
  double LastEnergyResidualW = 0.0;
  double LastCouplingDriftW = 0.0;
  double LastContinuityErrM3PerS = 0.0;
  double LastPressureClosurePa = 0.0;

  // Cached metric handles (registry-owned; valid for Reg's lifetime).
  telemetry::Counter *ThermalStepCount = nullptr;
  telemetry::Counter *FlowSolveCount = nullptr;
  telemetry::Counter *ViolationCount = nullptr;
  telemetry::Counter *BreachCount = nullptr;
  telemetry::Gauge *EnergyFractionGauge = nullptr;
  telemetry::Gauge *ContinuityFractionGauge = nullptr;
  telemetry::Gauge *PressureFractionGauge = nullptr;
  telemetry::Gauge *CouplingFractionGauge = nullptr;
  telemetry::Histogram *EnergyResidualHist = nullptr;
  telemetry::Histogram *ContinuityHist = nullptr;
  telemetry::Histogram *PressureClosureHist = nullptr;
  telemetry::Histogram *NewtonIterationsHist = nullptr;
};

/// Builds the audit alarm bank over \p Budgets: six debounced sensors in
/// the PhysicsAuditor::updateAlarms order, fraction sensors with 10%
/// hysteresis of their warn band, iteration sensor in whole iterations.
monitor::Supervisor makeAuditSupervisor(const DriftBudgets &Budgets,
                                        telemetry::Registry *Reg = nullptr);

/// Renders the per-invariant closure table `skatsim audit` prints:
/// one row per invariant with samples, worst absolute drift, worst
/// fraction, warn/critical budgets and a PASS/WARN/FAIL verdict.
std::string formatClosureTable(const AuditSummary &Summary,
                               const DriftBudgets &Budgets);

/// Writes `AUDIT_<command>.json` (schema skatsim-audit-v1): the summary,
/// budgets, and per-invariant verdicts as one JSON document, validated by
/// tools/check_trace.
Status writeAuditReport(const std::string &Path, const std::string &Command,
                        const AuditSummary &Summary,
                        const DriftBudgets &Budgets);

} // namespace audit
} // namespace rcs

#endif // RCS_AUDIT_AUDIT_H
