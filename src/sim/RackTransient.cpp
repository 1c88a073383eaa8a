//===- sim/RackTransient.cpp - Rack-level transient simulation ----------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Per step: every module's chip and oil nodes advance one implicit-Euler
/// step against the shared water temperature (treated as a boundary within
/// the step), then the water inventory integrates the sum of module duties
/// minus whatever the chiller extracts (gain-limited and capacity-capped).
/// Operator splitting at this time scale (seconds against minutes-to-hours
/// loop dynamics) is well inside the stability margin of the implicit
/// inner step.
///
//===----------------------------------------------------------------------===//

#include "sim/RackTransient.h"

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

RackTransientSimulator::RackTransientSimulator(RackConfig RackIn,
                                               double AmbientTempCIn,
                                               RackTransientConfig ConfigIn)
    : Rack(std::move(RackIn)), AmbientTempC(AmbientTempCIn),
      Config(ConfigIn),
      Super(monitor::makeRackSupervisor(
          Config.WaterWarnTempC, Config.WaterCriticalTempC,
          Config.JunctionWarnTempC, Config.ProtectionTripC,
          Config.Supervision)) {
  assert(Rack.Module.Cooling == CoolingKind::Immersion &&
         "the rack transient simulator models immersion modules");
}

void RackTransientSimulator::enableAudit(const audit::DriftBudgets &Budgets) {
  Auditor = std::make_unique<audit::PhysicsAuditor>(Budgets);
}

const std::vector<std::string> &RackTransientSimulator::flightChannels() {
  static const std::vector<std::string> Channels = {
      "water_C",  "mean_oil_C", "max_junction_C",
      "power_W",  "chiller_W",  "modules_down"};
  return Channels;
}

void RackTransientSimulator::scheduleChillerCapacity(double TimeS,
                                                     double Fraction) {
  assert(Fraction >= 0.0 && Fraction <= 1.0 && "fraction out of range");
  Events.push_back(
      {TimeS, Event::Kind::ChillerCapacity, Fraction, fpga::WorkloadPoint{}});
}

void RackTransientSimulator::scheduleWorkload(double TimeS,
                                              fpga::WorkloadPoint Point) {
  Events.push_back({TimeS, Event::Kind::Workload, 0.0, Point});
}

Expected<std::vector<RackTraceSample>>
RackTransientSimulator::run(double DurationS) {
  assert(DurationS > 0 && "duration must be positive");
  telemetry::Registry &Telemetry = telemetry::Registry::global();
  static telemetry::Counter &RunCount =
      Telemetry.counter("sim.rack_transient.runs");
  static telemetry::Counter &StepCount =
      Telemetry.counter("sim.rack_transient.steps");
  static telemetry::Counter &TripCount =
      Telemetry.counter("sim.rack_transient.protection_trips");
  static telemetry::Counter &DroppedEvents =
      Telemetry.counter("sim.rack_transient.dropped_events");
  static telemetry::Timer &RunTimer =
      Telemetry.timer("sim.rack_transient.run");
  telemetry::Span RunSpan(RunTimer);
  RunSpan.attr("duration_s", DurationS);
  RunSpan.attr("dt_s", Config.TimeStepS);
  RunSpan.attr("modules", Rack.NumModules);
  RunCount.add();

  std::stable_sort(Events.begin(), Events.end(),
                   [](const Event &A, const Event &B) {
                     return A.TimeS < B.TimeS;
                   });

  const ModuleConfig &Module = Rack.Module;
  Ccb Board(Module.Board);
  const fpga::FpgaSpec &Spec = Board.fpgaSpec();
  fpga::FpgaPowerModel PowerModel(Spec);
  auto Oil = makeCoolant(Module.Immersion.CoolantKind);
  auto Water = fluids::makeWater();
  thermal::PinFinHeatSink Sink("sink", Module.Immersion.SinkGeometry);
  double TimR = makeTim(Module.Immersion.Tim,
                        Spec.PackageSizeM * Spec.PackageSizeM)
                    .resistanceKPerW(Module.Immersion.TimExposureHours);

  const int NumModules = Rack.NumModules;
  const int FpgasPerModule = Module.NumCcbs * Board.computeFpgaCount();
  double OilFlow =
      Module.Immersion.NumPumps * Module.Immersion.PumpRatedFlowM3PerS;
  double WaterFlowPerModule = Rack.Hydraulics.HxRatedFlowM3PerS;

  double ChipCapacitance =
      FpgasPerModule * Config.ChipCapacitancePerFpgaJPerK;
  double OilCapacitance = Config.OilVolumePerModuleM3 *
                          Oil->volumetricHeatCapacityJPerM3K(35.0);
  double WaterCapacitance =
      Config.WaterInventoryM3 *
      Water->volumetricHeatCapacityJPerM3K(Rack.ChillerSupplyTempC + 2.0);

  // Dynamic state.
  fpga::WorkloadPoint Load = Module.Load;
  double ChillerFraction = 1.0;
  double WaterTemp = Rack.ChillerSupplyTempC;
  std::vector<double> ChipTemp(NumModules, WaterTemp + 8.0);
  std::vector<double> OilTemp(NumModules, WaterTemp + 4.0);
  std::vector<bool> ShutDown(NumModules, false);
  // Applied external-policy commands (identity without a policy).
  RackControlCommands Commands;
  Commands.ClockScale.assign(NumModules, 1.0);
  Commands.UtilizationScale.assign(NumModules, 1.0);
  Commands.ForceShutdown.assign(NumModules, false);

  Oil->enablePropertyCache();
  Water->enablePropertyCache();

  // One persistent network serves every module: all modules share the same
  // four-node structure and capacitances, so only conductances, heat
  // sources and boundary temperatures are rewritten per module-step. The
  // solver's symbolic phase (unknown indexing) is computed once for the
  // whole run; the rewritten conductances refactor every module-step.
  thermal::ThermalNetwork Net;
  thermal::NodeId Chips = Net.addNode("chips", ChipCapacitance);
  thermal::NodeId Bath = Net.addNode("oil", OilCapacitance);
  thermal::NodeId WaterNode = Net.addBoundaryNode("water", WaterTemp);
  thermal::NodeId Room = Net.addBoundaryNode("room", AmbientTempC);
  Net.addConductance(Chips, Bath, 1.0);
  Net.addConductance(Bath, WaterNode, 1.0);
  // Casing loss: a warm module leaks a little heat to the room.
  Net.addConductance(Bath, Room, 6.0);
  Net.addHeatSource(Chips, 0.0);
  Net.addHeatSource(Bath, 0.0);

  // Per-module factor lookup tolerating empty/short effect vectors.
  auto FactorAt = [](const std::vector<double> &Factors, int I) {
    return static_cast<size_t>(I) < Factors.size() ? Factors[I] : 1.0;
  };
  auto HeatAt = [](const std::vector<double> &HeatW, int I) {
    return static_cast<size_t>(I) < HeatW.size() ? HeatW[I] : 0.0;
  };

  if (Auditor) {
    Auditor->noteSparseSolver(Net.solvesSparse());
    Auditor->setCriticalCallback([this](const std::string &,
                                        double BreachTimeS) {
      if (FlightRec)
        FlightRec->trigger("audit budget breach", BreachTimeS);
    });
  }
  std::vector<double> AuditBefore;

  Super.reset();
  std::vector<RackTraceSample> Trace;
  size_t NextEvent = 0;
  double NextSampleTime = 0.0;
  double NextControlTime = 0.0;

  for (double Time = 0.0; Time <= DurationS; Time += Config.TimeStepS) {
    // One causal span per step; the per-module physics span and each
    // module's thermal step nest under it.
    static telemetry::Timer &StepTimer =
        Telemetry.timer("sim.rack_transient.step");
    telemetry::Span StepSpan(StepTimer);
    while (NextEvent < Events.size() && Events[NextEvent].TimeS <= Time) {
      const Event &E = Events[NextEvent];
      if (E.Kind == Event::Kind::ChillerCapacity)
        ChillerFraction = E.Value;
      else
        Load = E.Point;
      ++NextEvent;
    }

    // Plant degradation for this step (healthy defaults without a hook).
    RackPlantEffects Effects;
    if (PlantModifier)
      PlantModifier(Time, Effects);

    double TotalDuty = 0.0;
    double ImplicitDuty = 0.0;
    double TotalPower = 0.0;
    double MaxJunction = -1e9;
    double ThroughputSum = 0.0;
    double StepMaxAuditFraction = 0.0;
    int DownCount = 0;
    for (int I = 0; I != NumModules; ++I) {
      // A protected module has its supply rails cut: no dynamic power
      // and no leakage either.
      double ChipHeat = 0.0;
      double MiscHeat = 0.0;
      if (ShutDown[I]) {
        ++DownCount;
      } else {
        // Scheduled workload scaled by the applied policy commands.
        // Utilization beyond a module's capacity is lost, not queued.
        fpga::WorkloadPoint Effective = Load;
        double ClockScale =
            std::clamp(Commands.ClockScale[I], 0.0, 1.2);
        double UtilScale = std::max(Commands.UtilizationScale[I], 0.0);
        Effective.ClockFraction = Load.ClockFraction * ClockScale;
        Effective.Utilization =
            std::min(Load.Utilization * UtilScale, 1.0);
        double AppliedUtilScale =
            Load.Utilization > 1e-12
                ? Effective.Utilization / Load.Utilization
                : UtilScale;
        ThroughputSum += ClockScale * AppliedUtilScale;
        ChipHeat =
            FpgasPerModule * PowerModel.totalPowerW(Effective, ChipTemp[I]);
        MiscHeat = Module.NumCcbs * Module.Board.MiscPowerW;
      }
      MiscHeat += HeatAt(Effects.ModuleExtraHeatW, I);
      TotalPower += ChipHeat + MiscHeat;

      // Degraded oil circulation: impeller wear scales the delivered
      // flow, floored at the 3% natural-circulation trickle.
      double ModuleFlow =
          std::max(FactorAt(Effects.ModulePumpFactor, I), 0.03) * OilFlow;
      double ModuleVelocity = ModuleFlow / Module.Immersion.BathFlowAreaM2;

      // Per-module conductance evaluation: property lookups dominate, so
      // a dedicated span separates them from the thermal step below.
      double GChipOil = 0.0;
      double GOilWater = 0.0;
      {
        static telemetry::Timer &PropertyTimer =
            Telemetry.timer("sim.rack_transient.properties");
        telemetry::Span PropertySpan(PropertyTimer);
        double SinkR = Sink.thermalResistanceKPerW(
            *Oil, OilTemp[I], ModuleVelocity, ChipTemp[I]);
        GChipOil = FpgasPerModule / (Spec.ThetaJcKPerW + TimR + SinkR);

        double COil = ModuleFlow * Oil->densityKgPerM3(OilTemp[I]) *
                      Oil->specificHeatJPerKgK(OilTemp[I]);
        double CWater = hydraulics::PlateHeatExchanger::capacityRateWPerK(
            *Water, WaterFlowPerModule, WaterTemp);
        double CMin = std::min(COil, CWater);
        double CMax = std::max(COil, CWater);
        double Cr = CMin / CMax;
        double Ntu = Module.Immersion.HxUaWPerK *
                     FactorAt(Effects.ModuleUaFactor, I) / CMin;
        double Eps = std::fabs(1.0 - Cr) < 1e-9
                         ? Ntu / (1.0 + Ntu)
                         : (1.0 - std::exp(-Ntu * (1.0 - Cr))) /
                               (1.0 - Cr * std::exp(-Ntu * (1.0 - Cr)));
        GOilWater = Eps * CMin;
      }
      TotalDuty += GOilWater * (OilTemp[I] - WaterTemp);

      Net.setConductance(Chips, Bath, GChipOil);
      Net.setConductance(Bath, WaterNode, GOilWater);
      Net.setHeatSource(Chips, ChipHeat);
      Net.setHeatSource(Bath, MiscHeat);
      Net.setBoundaryTemp(WaterNode, WaterTemp);
      std::vector<double> State = {ChipTemp[I], OilTemp[I], WaterTemp,
                                   AmbientTempC};
      if (Auditor)
        AuditBefore = State;
      Status StepStatus = Net.stepTransient(State, Config.TimeStepS);
      if (!StepStatus.isOk())
        return Expected<std::vector<RackTraceSample>>(Status::error(
            "rack transient step failed: " + StepStatus.message()));
      ChipTemp[I] = State[Chips];
      OilTemp[I] = State[Bath];
      MaxJunction = std::max(MaxJunction, ChipTemp[I]);
      // What the implicit step actually transported into the shared
      // water boundary this step; the water inventory instead integrates
      // the begin-of-step duty (TotalDuty), so the difference is the
      // operator-splitting coupling drift the auditor tracks.
      ImplicitDuty += GOilWater * (OilTemp[I] - WaterTemp);
      if (Auditor) {
        audit::EnergyClosure Closure = Auditor->recordThermalStep(
            Net, AuditBefore, State, Config.TimeStepS);
        StepMaxAuditFraction =
            std::max(StepMaxAuditFraction, Closure.Fraction);
      }

      if (Config.EnableProtection && !ShutDown[I] &&
          ChipTemp[I] >= Config.ProtectionTripC) {
        ShutDown[I] = true;
        TripCount.add();
        if (FlightRec)
          FlightRec->trigger("protection trip", Time);
        if (Telemetry.tracingEnabled())
          Telemetry.emitEvent("sim.rack_transient.protection_trip",
                              {{"t_s", Time},
                               {"module", I},
                               {"junction_C", ChipTemp[I]}});
      }
    }

    // Rack alarm bank: shared-loop water temperature and the hottest
    // junction, debounced and hysteresis-qualified. Sensor faults distort
    // what the supervisor sees, never the plant itself.
    if (Auditor) {
      Auditor->recordCouplingDrift(TotalDuty - ImplicitDuty, TotalPower);
      StepSpan.attr("audit_max_fraction", StepMaxAuditFraction);
    }

    double Readings[2] = {WaterTemp, MaxJunction};
    if (SensorTransform)
      SensorTransform(Time, Readings, 2);
    monitor::SupervisoryReport Report = Super.update(Time, Readings, 2);
    if (FlightRec && Report.Worst == AlarmLevel::Critical)
      FlightRec->trigger("critical alarm", Time);
    if (Auditor)
      Auditor->updateAlarms(Time);

    // External degradation policy: clock shedding, load migration and
    // staged shutdown, applied from the next step on.
    if (ControlPolicy && Time >= NextControlTime) {
      NextControlTime += Config.ControlPeriodS;
      RackControlState PolicyState;
      PolicyState.TimeS = Time;
      PolicyState.Report = Report;
      PolicyState.JunctionTempC = &ChipTemp;
      PolicyState.OilTempC = &OilTemp;
      PolicyState.ModuleDown = &ShutDown;
      ControlPolicy(PolicyState, Commands);
      Commands.ClockScale.resize(NumModules, 1.0);
      Commands.UtilizationScale.resize(NumModules, 1.0);
      Commands.ForceShutdown.resize(NumModules, false);
      for (int I = 0; I != NumModules; ++I) {
        if (Commands.ForceShutdown[I] && !ShutDown[I]) {
          ShutDown[I] = true;
          if (Telemetry.tracingEnabled())
            Telemetry.emitEvent("sim.rack_transient.commanded_shutdown",
                                {{"t_s", Time}, {"module", I}});
        }
      }
    }

    // Water loop update: module duties in, chiller extraction out. A
    // derating fault composes with scheduled capacity events.
    double ChillerRequest =
        Config.ChillerGainWPerK *
        std::max(WaterTemp - (Rack.ChillerSupplyTempC - 1.0), 0.0);
    double ChillerDuty =
        std::min(ChillerRequest, ChillerFraction *
                                     Effects.ChillerCapacityFactor *
                                     Rack.ChillerRatedDutyW);
    WaterTemp +=
        (TotalDuty - ChillerDuty) / WaterCapacitance * Config.TimeStepS;

    double SumOil = 0.0;
    for (double T : OilTemp)
      SumOil += T;
    double MeanOil = SumOil / NumModules;

    if (FlightRec) {
      double Frame[6] = {WaterTemp,  MeanOil,
                         MaxJunction, TotalPower,
                         ChillerDuty, static_cast<double>(DownCount)};
      FlightRec->record(Time, Frame, 6);
    }

    StepCount.add();
    if (Telemetry.tracingEnabled())
      Telemetry.emitEvent("sim.rack_transient.step",
                          {{"t_s", Time},
                           {"water_C", WaterTemp},
                           {"max_junction_C", MaxJunction},
                           {"power_W", TotalPower},
                           {"chiller_W", ChillerDuty},
                           {"modules_down", DownCount}});

    if (Time >= NextSampleTime) {
      NextSampleTime += Config.SampleIntervalS;
      RackTraceSample Sample;
      Sample.TimeS = Time;
      Sample.WaterTempC = WaterTemp;
      Sample.MeanOilTempC = MeanOil;
      Sample.MaxJunctionTempC = MaxJunction;
      Sample.ChillerDutyW = ChillerDuty;
      Sample.TotalPowerW = TotalPower;
      Sample.ModulesShutDown = DownCount;
      Sample.ThroughputFraction = ThroughputSum / NumModules;
      Sample.Alarm = Report.Worst;
      Trace.push_back(Sample);
      if (SampleCallback)
        SampleCallback(Trace.back());
      if (Auditor)
        Auditor->emitStreamRecord(Time);
    }
  }

  if (FlightRec)
    (void)FlightRec->finalize();

  if (NextEvent < Events.size()) {
    uint64_t Dropped = Events.size() - NextEvent;
    DroppedEvents.add(Dropped);
    if (Telemetry.tracingEnabled())
      Telemetry.emitEvent(
          "sim.rack_transient.dropped_events",
          {{"count", static_cast<long long>(Dropped)},
           {"first_scheduled_t_s", Events[NextEvent].TimeS},
           {"duration_s", DurationS}});
  }
  return Trace;
}
