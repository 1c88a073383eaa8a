//===- sim/Transient.h - Transient module simulator -------------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Time-domain simulation of one immersion-cooled computational module:
/// a lumped electro-thermal model (chip mass + oil bath + chilled-water
/// boundary) driven by workload traces and fault events, supervised by the
/// CM monitoring subsystem. This reproduces the paper's heat experiments
/// ("experimental tests of the developed solutions") as simulations:
/// warm-up transients, pump failures, water-supply excursions and the
/// control system's reactions.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_SIM_TRANSIENT_H
#define RCS_SIM_TRANSIENT_H

#include "audit/Audit.h"
#include "monitor/FlightRecorder.h"
#include "monitor/Supervisor.h"
#include "support/Status.h"
#include "system/Module.h"
#include "system/Monitoring.h"

#include <functional>
#include <memory>
#include <vector>

namespace rcs {
namespace sim {

class TransientSolverAssets;

/// Tunables of the transient engine.
struct TransientConfig {
  double TimeStepS = 2.0;
  double SampleIntervalS = 10.0;
  /// Period of the monitoring subsystem's control loop.
  double ControlPeriodS = 30.0;
  /// Whether controller actions (pump speed, clock shedding, shutdown)
  /// are applied or merely recorded.
  bool ApplyControlActions = true;
  /// Debounce/hysteresis tuning of the supervisory alarm bank the
  /// controller consumes.
  monitor::SupervisorTuning Supervision;
  /// Lumped heat capacities.
  double ChipCapacitancePerFpgaJPerK = 120.0; ///< Package + sink mass.
  double OilVolumeM3 = 0.20;                  ///< Bath inventory.
};

/// Multiplicative plant-degradation state applied for one integration step.
///
/// The faults engine rewrites these through setPlantModifier; the defaults
/// are the healthy plant. Factors compose multiplicatively with whatever
/// the controller commands (a degraded pump at commanded speed 1.1 still
/// delivers only 1.1 * PumpSpeedFactor of rated speed).
struct PlantEffects {
  /// Delivered pump speed per commanded speed (impeller wear; 0 = seized).
  double PumpSpeedFactor = 1.0;
  /// Loop flow per delivered pump speed (manifold/valve blockage).
  double FlowRestrictionFactor = 1.0;
  /// Heat-exchanger UA relative to clean (fouling).
  double HxUaFactor = 1.0;
  /// Oil bath inventory relative to full (coolant loss).
  double CoolantInventoryFactor = 1.0;
  /// Additional parasitic heat into the bath (PSU efficiency droop), W.
  double ExtraHeatW = 0.0;
};

/// Rewrites \p Effects for the step at \p TimeS; called once per step.
using PlantModifierFn = std::function<void(double TimeS, PlantEffects &Effects)>;

/// Transforms the raw sensor readings the supervisor will see (drift,
/// stuck-at, dropout, spike). Called on each control period with the
/// physically true values; mutate in place. NaN readings classify Critical
/// downstream (fail-safe), so dropout is modeled as NaN.
using SensorTransformFn =
    std::function<void(double TimeS, double *Values, size_t NumValues)>;

/// Replaces the built-in alarm-to-action policy: receives the debounced
/// supervisory report and returns the action to apply this control period.
using ControlPolicyFn = std::function<rcsystem::ControlAction(
    double TimeS, const monitor::SupervisoryReport &Report)>;

/// One recorded sample of the transient trace.
struct TraceSample {
  double TimeS = 0.0;
  double MaxJunctionTempC = 0.0;
  double OilTempC = 0.0;
  double TotalPowerW = 0.0;
  double OilFlowM3PerS = 0.0;
  double PumpSpeedFraction = 1.0;
  double ClockFraction = 1.0;
  rcsystem::AlarmLevel Alarm = rcsystem::AlarmLevel::Normal;
  rcsystem::ControlAction Action = rcsystem::ControlAction::None;
  bool ShutDown = false;
};

/// Transient simulator for an immersion module.
class TransientSimulator {
public:
  /// \p Module must use immersion cooling.
  TransientSimulator(rcsystem::ModuleConfig Module,
                     rcsystem::ExternalConditions Conditions,
                     TransientConfig Config = TransientConfig());

  /// Schedules a workload change at \p TimeS.
  void scheduleWorkload(double TimeS, fpga::WorkloadPoint Point);

  /// Schedules a pump speed change (0 = failure / stop) at \p TimeS.
  void schedulePumpSpeed(double TimeS, double SpeedFraction);

  /// Schedules a chilled-water inlet temperature change at \p TimeS.
  void scheduleWaterInlet(double TimeS, double TempC);

  /// Schedules a chilled-water flow change at \p TimeS (0 = interruption
  /// of the facility loop; the oil bath then rides on its thermal mass).
  void scheduleWaterFlow(double TimeS, double FlowM3PerS);

  /// Runs the simulation for \p DurationS seconds and returns the trace.
  Expected<std::vector<TraceSample>> run(double DurationS);

  /// The supervisory alarm bank the control loop consumes. Transition
  /// callbacks installed here fire during run().
  monitor::Supervisor &supervisor() { return Super; }

  /// Attaches a non-owning flight recorder; every integration step is
  /// recorded and a Critical alarm triggers the dump. Channel order
  /// matches flightChannels().
  void attachFlightRecorder(monitor::FlightRecorder *Recorder) {
    FlightRec = Recorder;
  }

  /// Invoked for each recorded trace sample during run(); used by the
  /// monitor CLI to stream periodic state without re-walking the trace.
  void setSampleCallback(std::function<void(const TraceSample &)> Callback) {
    SampleCallback = std::move(Callback);
  }

  /// Installs a per-step plant-degradation hook (see PlantEffects).
  void setPlantModifier(PlantModifierFn Modifier) {
    PlantModifier = std::move(Modifier);
  }

  /// Installs a sensor-fault transform applied to the readings the
  /// supervisor consumes; the plant always integrates true state.
  void setSensorTransform(SensorTransformFn Transform) {
    SensorTransform = std::move(Transform);
  }

  /// Replaces recommendModuleAction as the alarm-to-action policy. The
  /// returned action is applied with the built-in actuator model (pump
  /// +0.1 steps to 1.2, clock -0.1 steps to the 0.5 floor, latching
  /// shutdown) when Config.ApplyControlActions is set.
  void setControlPolicy(ControlPolicyFn Policy) {
    ControlPolicy = std::move(Policy);
  }

  /// Enables the physics audit for subsequent run() calls: every
  /// implicit step's energy closure is checked against \p Budgets, the
  /// audit alarm bank is fed each control period, and a Critical budget
  /// breach triggers the attached flight recorder ("audit budget
  /// breach") exactly like a plant trip. Auditing is off by default; the
  /// cost is gated by the `overhead_audit` bench ratio.
  void enableAudit(const audit::DriftBudgets &Budgets =
                       audit::DriftBudgets());

  /// The physics auditor, or nullptr when auditing is disabled. Attach
  /// an `.audit.jsonl` stream or read the summary here after run().
  audit::PhysicsAuditor *auditor() { return Auditor.get(); }
  const audit::PhysicsAuditor *auditor() const { return Auditor.get(); }

  /// Borrows warmed solver assets (fluids with resampled property
  /// caches, the built two-node network) built
  /// for this module configuration and TransientConfig, instead of
  /// constructing them inside run(). Results are bit-identical either
  /// way (see sim/SolverAssets.h); the caller keeps ownership, must keep
  /// \p Assets alive across run(), and must not share them with a
  /// concurrently running simulator. Pass nullptr to detach.
  void setSolverAssets(TransientSolverAssets *Assets) {
    SharedAssets = Assets;
  }

  /// Channel names (and order) of flight-recorder frames.
  static const std::vector<std::string> &flightChannels();

private:
  struct Event {
    double TimeS;
    enum class Kind { Workload, PumpSpeed, WaterInlet, WaterFlow } Kind;
    fpga::WorkloadPoint Point;
    double Value = 0.0;
  };

  rcsystem::ModuleConfig Module;
  rcsystem::ExternalConditions Conditions;
  TransientConfig Config;
  std::vector<Event> Events;
  monitor::Supervisor Super;
  TransientSolverAssets *SharedAssets = nullptr;
  monitor::FlightRecorder *FlightRec = nullptr;
  std::unique_ptr<audit::PhysicsAuditor> Auditor;
  std::function<void(const TraceSample &)> SampleCallback;
  PlantModifierFn PlantModifier;
  SensorTransformFn SensorTransform;
  ControlPolicyFn ControlPolicy;
};

} // namespace sim
} // namespace rcs

#endif // RCS_SIM_TRANSIENT_H
