//===- sim/Transient.cpp - Transient module simulator -------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Model structure: two lumped internal nodes (aggregate chip mass and the
/// oil bath) and one boundary (chilled water inlet). The chip->oil
/// conductance comes from the pin-fin sink model at the instantaneous flow;
/// the oil->water conductance is the effectiveness-linearized heat
/// exchanger (duty = eps * Cmin * (T_oil - T_water_in)). Pump speed scales
/// flow by the affinity laws; a stopped pump leaves a small
/// natural-convection trickle.
///
//===----------------------------------------------------------------------===//

#include "sim/Transient.h"

#include "fluids/Fluid.h"
#include "hydraulics/HeatExchanger.h"
#include "system/Cooling.h"
#include "thermal/HeatSink.h"
#include "thermal/Network.h"

#include "telemetry/Span.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace rcs;
using namespace rcs::sim;
using namespace rcs::rcsystem;

namespace {

/// Module monitoring thresholds with the design flow anchored to the
/// module's own rated pump bank, as the steady solver does.
MonitoringConfig monitoringConfigFor(const ModuleConfig &Module) {
  MonitoringConfig MonitorConfig;
  MonitorConfig.DesignFlowM3PerS =
      Module.Immersion.NumPumps * Module.Immersion.PumpRatedFlowM3PerS;
  return MonitorConfig;
}

} // namespace

TransientSimulator::TransientSimulator(ModuleConfig ModuleIn,
                                       ExternalConditions ConditionsIn,
                                       TransientConfig ConfigIn)
    : Module(std::move(ModuleIn)), Conditions(ConditionsIn),
      Config(ConfigIn),
      Super(monitor::makeModuleSupervisor(monitoringConfigFor(Module),
                                          Config.Supervision)) {
  assert(Module.Cooling == CoolingKind::Immersion &&
         "the transient simulator models immersion modules");
}

void TransientSimulator::enableAudit(const audit::DriftBudgets &Budgets) {
  Auditor = std::make_unique<audit::PhysicsAuditor>(Budgets);
}

const std::vector<std::string> &TransientSimulator::flightChannels() {
  static const std::vector<std::string> Channels = {
      "junction_C", "oil_C",      "power_W",
      "flow_m3s",   "pump_speed", "clock_fraction"};
  return Channels;
}

void TransientSimulator::scheduleWorkload(double TimeS,
                                          fpga::WorkloadPoint Point) {
  Events.push_back({TimeS, Event::Kind::Workload, Point, 0.0});
}

void TransientSimulator::schedulePumpSpeed(double TimeS,
                                           double SpeedFraction) {
  assert(SpeedFraction >= 0.0 && SpeedFraction <= 1.2 &&
         "pump speed out of range");
  Events.push_back(
      {TimeS, Event::Kind::PumpSpeed, fpga::WorkloadPoint{}, SpeedFraction});
}

void TransientSimulator::scheduleWaterInlet(double TimeS, double TempC) {
  Events.push_back(
      {TimeS, Event::Kind::WaterInlet, fpga::WorkloadPoint{}, TempC});
}

void TransientSimulator::scheduleWaterFlow(double TimeS,
                                           double FlowM3PerS) {
  assert(FlowM3PerS >= 0.0 && "negative water flow");
  Events.push_back(
      {TimeS, Event::Kind::WaterFlow, fpga::WorkloadPoint{}, FlowM3PerS});
}

Expected<std::vector<TraceSample>> TransientSimulator::run(double DurationS) {
  assert(DurationS > 0 && "duration must be positive");
  telemetry::Registry &Telemetry = telemetry::Registry::global();
  static telemetry::Counter &RunCount =
      Telemetry.counter("sim.transient.runs");
  static telemetry::Counter &StepCount =
      Telemetry.counter("sim.transient.steps");
  static telemetry::Counter &ActionCount =
      Telemetry.counter("sim.transient.control_actions");
  static telemetry::Counter &DroppedEvents =
      Telemetry.counter("sim.transient.dropped_events");
  static telemetry::Timer &RunTimer = Telemetry.timer("sim.transient.run");
  telemetry::Span RunSpan(RunTimer);
  RunSpan.attr("duration_s", DurationS);
  RunSpan.attr("dt_s", Config.TimeStepS);
  RunCount.add();

  std::stable_sort(Events.begin(), Events.end(),
                   [](const Event &A, const Event &B) {
                     return A.TimeS < B.TimeS;
                   });

  // Static pieces of the model.
  Ccb Board(Module.Board);
  const fpga::FpgaSpec &Spec = Board.fpgaSpec();
  fpga::FpgaPowerModel PowerModel(Spec);
  auto Oil = makeCoolant(Module.Immersion.CoolantKind);
  auto Water = fluids::makeWater();
  thermal::PinFinHeatSink Sink("sink", Module.Immersion.SinkGeometry);
  double TimR = makeTim(Module.Immersion.Tim,
                        Spec.PackageSizeM * Spec.PackageSizeM)
                    .resistanceKPerW(Module.Immersion.TimExposureHours);

  const int NumFpgas = Module.NumCcbs * Board.computeFpgaCount();
  // Nominal flow from the steady solver's operating point equation: use
  // the rated point as the anchor and scale by pump speed.
  double NominalFlow =
      Module.Immersion.NumPumps * Module.Immersion.PumpRatedFlowM3PerS;

  // Dynamic state.
  fpga::WorkloadPoint Load = Module.Load;
  double PumpSpeed = 1.0;
  double ClockScale = 1.0;
  bool ShutDown = false;
  double WaterInlet = Conditions.WaterInletTempC;
  double WaterFlow = Conditions.WaterFlowM3PerS;

  double ChipCapacitance = NumFpgas * Config.ChipCapacitancePerFpgaJPerK;
  // Exact-table anchor: taken before the property cache below resamples
  // the oil tables.
  double FullOilCapacitance =
      Config.OilVolumeM3 * Oil->volumetricHeatCapacityJPerM3K(35.0);

  double OilTemp = WaterInlet + 4.0;
  double ChipTemp = OilTemp + 5.0;

  // Persistent two-node network: built once, mutated in place each step
  // so the solver's symbolic phase (unknown indexing) survives the whole
  // run. The temperature-dependent conductances change every step, so
  // every step refactors; the network is never rebuilt or re-indexed.
  thermal::ThermalNetwork Net;
  thermal::NodeId Chips = Net.addNode("chips", ChipCapacitance);
  thermal::NodeId Bath = Net.addNode("oil", FullOilCapacitance);
  thermal::NodeId WaterNode = Net.addBoundaryNode("water", WaterInlet);
  Net.addConductance(Chips, Bath, 1.0);
  Net.addConductance(Bath, WaterNode, 1.0);
  Net.addHeatSource(Chips, 0.0);
  Net.addHeatSource(Bath, 0.0);

  // Property lookups dominate the per-step conductance evaluation; the
  // uniform-grid cache makes them O(1) (agreement with the exact tables
  // is covered by the solver-equivalence tests).
  Oil->enablePropertyCache();
  Water->enablePropertyCache();

  if (Auditor) {
    Auditor->noteSparseSolver(Net.solvesSparse());
    Auditor->setCriticalCallback(
        [this](const std::string &, double BreachTimeS) {
          if (FlightRec)
            FlightRec->trigger("audit budget breach", BreachTimeS);
        });
  }
  std::vector<double> AuditBefore;

  Super.reset();
  std::vector<TraceSample> Trace;
  size_t NextEvent = 0;
  double NextSampleTime = 0.0;
  double NextControlTime = 0.0;
  rcsystem::AlarmLevel LastAlarm = rcsystem::AlarmLevel::Normal;
  rcsystem::ControlAction LastAction = rcsystem::ControlAction::None;

  for (double Time = 0.0; Time <= DurationS; Time += Config.TimeStepS) {
    // One causal span per step: the thermal step and property spans below
    // nest under it, so a profile attributes the whole loop body.
    static telemetry::Timer &StepTimer =
        Telemetry.timer("sim.transient.step");
    telemetry::Span StepSpan(StepTimer);
    // Fire due events.
    while (NextEvent < Events.size() && Events[NextEvent].TimeS <= Time) {
      const Event &E = Events[NextEvent];
      switch (E.Kind) {
      case Event::Kind::Workload:
        Load = E.Point;
        break;
      case Event::Kind::PumpSpeed:
        PumpSpeed = E.Value;
        break;
      case Event::Kind::WaterInlet:
        WaterInlet = E.Value;
        break;
      case Event::Kind::WaterFlow:
        WaterFlow = E.Value;
        break;
      }
      ++NextEvent;
    }

    // Plant degradation for this step (healthy defaults without a hook).
    PlantEffects Effects;
    if (PlantModifier)
      PlantModifier(Time, Effects);

    // Flow from pump speed; a stopped pump leaves ~3% natural circulation.
    // Impeller wear scales the delivered speed, blockage throttles the
    // resulting loop flow (natural circulation included: a blocked loop is
    // blocked for buoyant flow too).
    double Flow = std::max(PumpSpeed * Effects.PumpSpeedFactor, 0.03) *
                  NominalFlow * Effects.FlowRestrictionFactor;
    double Velocity = Flow / Module.Immersion.BathFlowAreaM2;

    // Effective workload after control actions.
    fpga::WorkloadPoint Effective = Load;
    Effective.ClockFraction *= ClockScale;
    if (ShutDown) {
      Effective.Utilization = 0.0;
      Effective.ClockFraction = 0.0;
    }

    // Chip power and conductances at this instant; one span covers the
    // property-lookup-dominated section so profiles separate it from the
    // linear solve.
    double ChipHeat = 0.0;
    double MiscHeat = 0.0;
    double GChipOil = 0.0;
    double GOilWater = 3.0; // W/K casing loss with the facility loop down.
    {
      static telemetry::Timer &PropertyTimer =
          Telemetry.timer("sim.transient.properties");
      telemetry::Span PropertySpan(PropertyTimer);
      double PerFpga = PowerModel.totalPowerW(Effective, ChipTemp);
      ChipHeat = NumFpgas * PerFpga;
      MiscHeat = Module.NumCcbs * Module.Board.MiscPowerW *
                     (ShutDown ? 0.1 : 1.0) +
                 Effects.ExtraHeatW;

      double SinkR = Sink.thermalResistanceKPerW(*Oil, OilTemp, Velocity,
                                                 ChipTemp);
      double PerFpgaR = Spec.ThetaJcKPerW + TimR + SinkR;
      GChipOil = NumFpgas / PerFpgaR;

      double COil = Flow * Oil->densityKgPerM3(OilTemp) *
                    Oil->specificHeatJPerKgK(OilTemp);
      double CWater = hydraulics::PlateHeatExchanger::capacityRateWPerK(
          *Water, WaterFlow, WaterInlet);
      if (COil > 0.0 && CWater > 0.0) {
        double CMin = std::min(COil, CWater);
        double CMax = std::max(COil, CWater);
        double Cr = CMin / CMax;
        double Ntu = Module.Immersion.HxUaWPerK * Effects.HxUaFactor / CMin;
        double Eps = std::fabs(1.0 - Cr) < 1e-9
                         ? Ntu / (1.0 + Ntu)
                         : (1.0 - std::exp(-Ntu * (1.0 - Cr))) /
                               (1.0 - Cr * std::exp(-Ntu * (1.0 - Cr)));
        GOilWater = Eps * CMin;
      }
    }

    // One implicit step of the two-node network. Coolant loss shows up as
    // reduced bath thermal mass (faster excursions), floored so the node
    // stays well-conditioned.
    double OilCapacitance =
        FullOilCapacitance * std::max(Effects.CoolantInventoryFactor, 0.05);
    Net.setConductance(Chips, Bath, GChipOil);
    Net.setConductance(Bath, WaterNode, GOilWater);
    Net.setCapacitance(Bath, OilCapacitance);
    Net.setHeatSource(Chips, ChipHeat);
    Net.setHeatSource(Bath, MiscHeat);
    Net.setBoundaryTemp(WaterNode, WaterInlet);
    std::vector<double> State = {ChipTemp, OilTemp, WaterInlet};
    if (Auditor)
      AuditBefore = State;
    Status StepStatus = Net.stepTransient(State, Config.TimeStepS);
    if (!StepStatus.isOk())
      return Expected<std::vector<TraceSample>>(
          Status::error("transient step failed: " + StepStatus.message()));
    ChipTemp = State[Chips];
    OilTemp = State[Bath];

    if (Auditor) {
      audit::EnergyClosure Closure = Auditor->recordThermalStep(
          Net, AuditBefore, State, Config.TimeStepS);
      StepSpan.attr("audit_residual_w", Closure.ResidualW);
      StepSpan.attr("audit_fraction", Closure.Fraction);
    }

    StepCount.add();
    if (Telemetry.tracingEnabled())
      Telemetry.emitEvent("sim.transient.step",
                          {{"t_s", Time},
                           {"junction_C", ChipTemp},
                           {"oil_C", OilTemp},
                           {"power_W", ChipHeat + MiscHeat},
                           {"flow_m3s", Flow},
                           {"pump_speed", PumpSpeed},
                           {"clock_fraction", ClockScale}});

    if (FlightRec) {
      double Frame[6] = {ChipTemp, OilTemp,   ChipHeat + MiscHeat,
                         Flow,     PumpSpeed, ClockScale};
      FlightRec->record(Time, Frame, 6);
    }

    // Control loop: the controller consumes the debounced, hysteresis-
    // qualified alarm bank rather than raw threshold classifications.
    if (Time >= NextControlTime) {
      static telemetry::Timer &ControlTimer =
          Telemetry.timer("sim.transient.control");
      telemetry::Span ControlSpan(ControlTimer);
      NextControlTime += Config.ControlPeriodS;
      double Readings[3] = {OilTemp, ChipTemp, Flow};
      if (SensorTransform)
        SensorTransform(Time, Readings, 3);
      monitor::SupervisoryReport Report = Super.update(Time, Readings, 3);
      if (Auditor)
        Auditor->updateAlarms(Time);
      ControlAction Action = ControlPolicy
                                 ? ControlPolicy(Time, Report)
                                 : monitor::recommendModuleAction(Report);
      LastAlarm = Report.Worst;
      LastAction = Action;
      if (FlightRec && Report.Worst == AlarmLevel::Critical)
        FlightRec->trigger("critical alarm", Time);
      if (Action != ControlAction::None)
        ActionCount.add();
      if (Telemetry.tracingEnabled())
        Telemetry.emitEvent("sim.transient.control",
                            {{"t_s", Time},
                             {"alarm", alarmLevelName(Report.Worst)},
                             {"action", controlActionName(Action)},
                             {"shut_down", ShutDown}});
      if (Config.ApplyControlActions && !ShutDown) {
        switch (Action) {
        case ControlAction::None:
          break;
        case ControlAction::RaisePumpSpeed:
          if (PumpSpeed > 0.0)
            PumpSpeed = std::min(PumpSpeed + 0.1, 1.2);
          break;
        case ControlAction::ReduceClock:
          ClockScale = std::max(0.5, ClockScale - 0.1);
          break;
        case ControlAction::Shutdown:
          ShutDown = true;
          break;
        }
      }
    }

    // Record.
    if (Time >= NextSampleTime) {
      NextSampleTime += Config.SampleIntervalS;
      TraceSample Sample;
      Sample.TimeS = Time;
      Sample.MaxJunctionTempC = ChipTemp;
      Sample.OilTempC = OilTemp;
      Sample.TotalPowerW = ChipHeat + MiscHeat;
      Sample.OilFlowM3PerS = Flow;
      Sample.PumpSpeedFraction = PumpSpeed;
      Sample.ClockFraction = ClockScale;
      Sample.Alarm = LastAlarm;
      Sample.Action = LastAction;
      Sample.ShutDown = ShutDown;
      Trace.push_back(Sample);
      if (SampleCallback)
        SampleCallback(Trace.back());
      if (Auditor)
        Auditor->emitStreamRecord(Time);
    }
  }

  // Flush a partial post-trigger tail if the run ended mid-window.
  if (FlightRec)
    (void)FlightRec->finalize();

  // Events scheduled past the horizon never fired. Surface the miss as a
  // warning counter (and a trace event) instead of dropping it silently.
  if (NextEvent < Events.size()) {
    uint64_t Dropped = Events.size() - NextEvent;
    DroppedEvents.add(Dropped);
    if (Telemetry.tracingEnabled())
      Telemetry.emitEvent(
          "sim.transient.dropped_events",
          {{"count", static_cast<long long>(Dropped)},
           {"first_scheduled_t_s", Events[NextEvent].TimeS},
           {"duration_s", DurationS}});
  }
  return Trace;
}
