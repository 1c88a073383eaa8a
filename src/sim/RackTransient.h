//===- sim/RackTransient.h - Rack-level transient simulation ----*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Time-domain simulation of a whole rack: every computational module's
/// chip mass and oil bath, the shared chilled-water loop inventory, and a
/// capacity-limited chiller regulating the water temperature. Extends the
/// single-module TransientSimulator to the scenarios only a rack can
/// show: a chiller outage heating the shared loop, staggered module
/// protection trips, and recovery after repair.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_SIM_RACKTRANSIENT_H
#define RCS_SIM_RACKTRANSIENT_H

#include "audit/Audit.h"
#include "monitor/FlightRecorder.h"
#include "monitor/Supervisor.h"
#include "sim/Transient.h"
#include "support/Status.h"
#include "system/Rack.h"

#include <functional>
#include <memory>
#include <vector>

namespace rcs {
namespace sim {

/// Per-module plant degradation plus rack-shared chiller derating for one
/// integration step. Vectors may be left empty (healthy) or sized to the
/// module count; the faults engine rewrites them through
/// setPlantModifier.
struct RackPlantEffects {
  /// Chiller capacity relative to rated, composed with scheduled
  /// chiller-capacity events (derating fault x outage event).
  double ChillerCapacityFactor = 1.0;
  /// Per-module delivered oil-pump speed factor (empty = all healthy).
  std::vector<double> ModulePumpFactor;
  /// Per-module heat-exchanger UA factor relative to clean.
  std::vector<double> ModuleUaFactor;
  /// Per-module extra parasitic heat into the bath (PSU droop), W.
  std::vector<double> ModuleExtraHeatW;
};

/// Rewrites \p Effects for the step at \p TimeS; called once per step.
using RackPlantModifierFn =
    std::function<void(double TimeS, RackPlantEffects &Effects)>;

/// Rack state handed to an external control policy each control period.
/// Pointer members refer to simulator-owned state valid for the call only.
struct RackControlState {
  double TimeS = 0.0;
  /// Debounced rack alarm bank report (water temp, hottest junction).
  monitor::SupervisoryReport Report;
  const std::vector<double> *JunctionTempC = nullptr;
  const std::vector<double> *OilTempC = nullptr;
  const std::vector<bool> *ModuleDown = nullptr;
};

/// Per-module commands an external policy returns. Scales are relative to
/// the scheduled rack workload: clock scale is clamped to [0, 1.2],
/// utilization scale is clamped so effective utilization never exceeds 1
/// (migrated work beyond a module's capacity is lost, not queued).
/// ForceShutdown latches a module off exactly like a protection trip.
struct RackControlCommands {
  std::vector<double> ClockScale;
  std::vector<double> UtilizationScale;
  std::vector<bool> ForceShutdown;
};

/// Inspects \p State and appends/overwrites \p Commands (sized to the
/// module count, initialized to the currently applied commands).
using RackControlPolicyFn = std::function<void(const RackControlState &State,
                                               RackControlCommands &Commands)>;

/// Tunables of the rack transient engine.
struct RackTransientConfig {
  double TimeStepS = 5.0;
  double SampleIntervalS = 30.0;
  /// Chilled-water loop inventory (pipes + manifolds + buffer tank).
  double WaterInventoryM3 = 0.6;
  /// Chiller regulation gain: heat extracted per kelvin the loop sits
  /// above the setpoint, capped at the rated duty.
  double ChillerGainWPerK = 8.0e4;
  /// Oil inventory per module.
  double OilVolumePerModuleM3 = 0.20;
  double ChipCapacitancePerFpgaJPerK = 120.0;
  /// Junction temperature at which a module's protection latches it off.
  double ProtectionTripC = 85.0;
  bool EnableProtection = true;
  /// Supervisory alarm thresholds on the shared loop and hottest module.
  double WaterWarnTempC = 28.0;
  double WaterCriticalTempC = 38.0;
  double JunctionWarnTempC = 70.0;
  /// Debounce/hysteresis tuning of the rack alarm bank.
  monitor::SupervisorTuning Supervision;
  /// Period of the external control policy loop (setControlPolicy).
  double ControlPeriodS = 60.0;
};

/// One recorded rack-level sample.
struct RackTraceSample {
  double TimeS = 0.0;
  double WaterTempC = 0.0;
  double MeanOilTempC = 0.0;
  double MaxJunctionTempC = 0.0;
  double ChillerDutyW = 0.0;
  double TotalPowerW = 0.0;
  int ModulesShutDown = 0;
  /// Work actually executed relative to the scheduled rack workload:
  /// mean over modules of clock x utilization scaling, zero for modules
  /// that are down. 1.0 = full throughput retained.
  double ThroughputFraction = 1.0;
  /// Worst debounced alarm across the rack alarm bank at sample time.
  rcsystem::AlarmLevel Alarm = rcsystem::AlarmLevel::Normal;
};

/// Transient simulator for a rack of immersion modules.
class RackTransientSimulator {
public:
  /// \p Rack must use immersion modules.
  RackTransientSimulator(rcsystem::RackConfig Rack, double AmbientTempC,
                         RackTransientConfig Config = RackTransientConfig());

  /// Schedules a chiller capacity change at \p TimeS; \p Fraction of the
  /// rated duty (0 = outage, 1 = healthy).
  void scheduleChillerCapacity(double TimeS, double Fraction);

  /// Schedules a rack-wide workload change at \p TimeS.
  void scheduleWorkload(double TimeS, fpga::WorkloadPoint Point);

  /// Runs the simulation and returns the rack trace.
  Expected<std::vector<RackTraceSample>> run(double DurationS);

  /// The rack-level alarm bank (shared-loop water, hottest junction).
  monitor::Supervisor &supervisor() { return Super; }

  /// Attaches a non-owning flight recorder; every step is recorded and
  /// the first protection trip (or Critical alarm) triggers the dump.
  /// Channel order matches flightChannels().
  void attachFlightRecorder(monitor::FlightRecorder *Recorder) {
    FlightRec = Recorder;
  }

  /// Invoked for each recorded rack trace sample during run().
  void setSampleCallback(
      std::function<void(const RackTraceSample &)> Callback) {
    SampleCallback = std::move(Callback);
  }

  /// Installs a per-step plant-degradation hook (see RackPlantEffects).
  void setPlantModifier(RackPlantModifierFn Modifier) {
    PlantModifier = std::move(Modifier);
  }

  /// Installs a sensor-fault transform applied to the rack alarm bank's
  /// readings (0 = water temp C, 1 = hottest junction C) before the
  /// supervisor sees them; the plant always integrates true state.
  void setSensorTransform(SensorTransformFn Transform) {
    SensorTransform = std::move(Transform);
  }

  /// Installs an external control policy invoked every
  /// Config.ControlPeriodS with the debounced report and per-module
  /// temperatures; its commands (clock scale, utilization scale, forced
  /// shutdown) take effect the following step.
  void setControlPolicy(RackControlPolicyFn Policy) {
    ControlPolicy = std::move(Policy);
  }

  /// Enables the physics audit for subsequent run() calls: every
  /// module's implicit step is energy-audited, the water-loop operator
  /// splitting drift is tracked against the coupling budget, and a
  /// Critical budget breach triggers the attached flight recorder
  /// ("audit budget breach"). Off by default.
  void enableAudit(const audit::DriftBudgets &Budgets =
                       audit::DriftBudgets());

  /// The physics auditor, or nullptr when auditing is disabled.
  audit::PhysicsAuditor *auditor() { return Auditor.get(); }
  const audit::PhysicsAuditor *auditor() const { return Auditor.get(); }

  /// Channel names (and order) of flight-recorder frames.
  static const std::vector<std::string> &flightChannels();

private:
  struct Event {
    double TimeS;
    enum class Kind { ChillerCapacity, Workload } Kind;
    double Value = 0.0;
    fpga::WorkloadPoint Point;
  };

  rcsystem::RackConfig Rack;
  double AmbientTempC;
  RackTransientConfig Config;
  std::vector<Event> Events;
  monitor::Supervisor Super;
  monitor::FlightRecorder *FlightRec = nullptr;
  std::unique_ptr<audit::PhysicsAuditor> Auditor;
  std::function<void(const RackTraceSample &)> SampleCallback;
  RackPlantModifierFn PlantModifier;
  SensorTransformFn SensorTransform;
  RackControlPolicyFn ControlPolicy;
};

} // namespace sim
} // namespace rcs

#endif // RCS_SIM_RACKTRANSIENT_H
