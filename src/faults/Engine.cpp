//===- faults/Engine.cpp - Closed-loop reliability engine -----------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "faults/Engine.h"

#include "audit/Audit.h"
#include "core/ConfigIO.h"
#include "core/Designs.h"
#include "monitor/Alarm.h"
#include "sim/RackTransient.h"
#include "sim/Transient.h"
#include "telemetry/Telemetry.h"
#include "workload/Scheduler.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

using namespace rcs;
using namespace rcs::faults;

namespace {

/// The tail window must stay below the trip and either flat or cooling
/// for the end state to count as safely degraded.
void finishOutcome(ScenarioOutcome &Out, double TripC) {
  std::stable_sort(Out.Events.begin(), Out.Events.end(),
                   [](const FaultEvent &A, const FaultEvent &B) {
                     return A.TimeS < B.TimeS;
                   });
  if (Out.JunctionSampleC.empty()) {
    Out.SafeDegradedEnd = false;
    return;
  }
  size_t Tail = std::max<size_t>(Out.JunctionSampleC.size() / 10, 2);
  Tail = std::min(Tail, Out.JunctionSampleC.size());
  auto First = Out.JunctionSampleC.end() - static_cast<long>(Tail);
  double TailMax = *std::max_element(First, Out.JunctionSampleC.end());
  bool Cooling = Out.JunctionSampleC.back() <= *First;
  double Drift = Out.JunctionSampleC.back() - *First;
  Out.SafeDegradedEnd = TailMax < TripC && (Cooling || Drift < 2.0);
}

/// Copies the simulator's physics-audit totals into the outcome so sweep
/// reports can fold them per replicate (plain data, deterministic).
void foldAuditSummary(ScenarioOutcome &Out,
                      const audit::PhysicsAuditor *Auditor) {
  if (!Auditor)
    return;
  const audit::AuditSummary &A = Auditor->summary();
  Out.AuditMaxEnergyFraction =
      std::max(A.Energy.MaxFraction, A.EnergyNode.MaxFraction);
  Out.AuditMaxCouplingFraction = A.Coupling.MaxFraction;
  Out.AuditViolationCount = A.Energy.Violations + A.EnergyNode.Violations +
                            A.Coupling.Violations + A.Continuity.Violations +
                            A.PressureClosure.Violations;
  Out.AuditWithinBudget = A.withinBudgets(Auditor->budgets());
}

Expected<rcsystem::ModuleConfig> resolveModule(const Scenario &S) {
  if (!S.ModuleConfigPath.empty())
    return core::loadModuleConfigFile(S.ModuleConfigPath);
  if (S.Design == "skat")
    return core::makeSkatModule();
  if (S.Design == "skat-plus")
    return core::makeSkatPlusModule();
  if (S.Design == "skat-plus-naive")
    return core::makeSkatPlusNaiveModule();
  return Expected<rcsystem::ModuleConfig>::error(
      "faults: design '" + S.Design +
      "' has no immersion transient model (use skat, skat-plus or "
      "skat-plus-naive)");
}

Expected<ScenarioOutcome> runModuleScenario(const Scenario &S,
                                            uint64_t HazardStream) {
  auto Module = resolveModule(S);
  if (!Module)
    return Expected<ScenarioOutcome>(Module.status());
  if (Module->Cooling != rcsystem::CoolingKind::Immersion)
    return Expected<ScenarioOutcome>::error(
        "faults: module-level scenarios need an immersion module");

  std::vector<FaultSpec> Schedule = S.Faults;
  std::vector<FaultSpec> Sampled =
      sampleFaultSchedule(S.Hazards, S.DurationS, S.Seed, HazardStream);
  Schedule.insert(Schedule.end(), Sampled.begin(), Sampled.end());

  ScenarioOutcome Out;
  Out.Name = S.Name;
  Out.DurationS = S.DurationS;

  FaultInjector Injector(std::move(Schedule));
  Injector.setEventCallback(
      [&Out](const FaultEvent &Event) { Out.Events.push_back(Event); });

  sim::TransientSimulator Sim(*Module, core::makeNominalConditions());
  Sim.enableAudit();
  Sim.setPlantModifier([&Injector](double TimeS, sim::PlantEffects &Effects) {
    Injector.plantEffectsAt(TimeS, Effects);
  });
  Sim.setSensorTransform(
      [&Injector](double TimeS, double *Values, size_t NumValues) {
        Injector.transformReadings(TimeS, Values, NumValues);
      });

  Sim.supervisor().setTransitionCallback(
      [&Out](const monitor::AlarmTransition &Transition) {
        if (Out.TimeToFirstCriticalS < 0.0 &&
            monitor::alarmStateLevel(Transition.To) ==
                rcsystem::AlarmLevel::Critical)
          Out.TimeToFirstCriticalS = Transition.TimeS;
        Out.Events.push_back({Transition.TimeS, "alarm", Transition.Sensor,
                              std::string(monitor::alarmStateName(
                                  Transition.From)) +
                                  "->" +
                                  monitor::alarmStateName(Transition.To),
                              0, 0.0});
      });

  // Staged degradation: on a Critical report, shed clock first and only
  // shut down once the alarm has persisted CriticalPeriodsToShutdown
  // control periods; below Critical, defer to the stock recommendation.
  if (S.Policy.Enabled) {
    auto Streak = std::make_shared<int>(0);
    auto Prev = std::make_shared<rcsystem::ControlAction>(
        rcsystem::ControlAction::None);
    int PeriodsToShutdown = S.Policy.CriticalPeriodsToShutdown;
    Sim.setControlPolicy([&Out, Streak, Prev, PeriodsToShutdown](
                             double TimeS,
                             const monitor::SupervisoryReport &Report) {
      rcsystem::ControlAction Action;
      if (Report.Worst < rcsystem::AlarmLevel::Critical) {
        *Streak = 0;
        Action = monitor::recommendModuleAction(Report);
      } else {
        ++*Streak;
        Action = *Streak >= PeriodsToShutdown
                     ? rcsystem::ControlAction::Shutdown
                     : rcsystem::ControlAction::ReduceClock;
      }
      if (Action != *Prev && Action != rcsystem::ControlAction::None) {
        Out.Events.push_back({TimeS, "action",
                              rcsystem::controlActionName(Action),
                              "staged degradation policy", 0, 0.0});
        ++Out.ActionsTaken;
      }
      *Prev = Action;
      return Action;
    });
  }

  size_t NumSamples = 0;
  double UpSum = 0.0, ThroughputSum = 0.0;
  bool WasDown = false;
  Sim.setSampleCallback([&](const sim::TraceSample &Sample) {
    ++NumSamples;
    UpSum += Sample.ShutDown ? 0.0 : 1.0;
    ThroughputSum += Sample.ShutDown ? 0.0 : Sample.ClockFraction;
    Out.MaxJunctionC = std::max(Out.MaxJunctionC, Sample.MaxJunctionTempC);
    Out.FinalJunctionC = Sample.MaxJunctionTempC;
    Out.FinalAlarm = Sample.Alarm;
    Out.JunctionSampleC.push_back(Sample.MaxJunctionTempC);
    if (Sample.ShutDown && !WasDown) {
      WasDown = true;
      Out.ModulesShutDown = 1;
      Out.Events.push_back({Sample.TimeS, "trip", "module",
                            "module latched off", 0, 0.0});
    }
  });

  auto Trace = Sim.run(S.DurationS);
  if (!Trace)
    return Expected<ScenarioOutcome>(Trace.status());

  if (NumSamples != 0) {
    Out.AvailabilityFraction = UpSum / static_cast<double>(NumSamples);
    Out.ThroughputRetainedFraction =
        ThroughputSum / static_cast<double>(NumSamples);
  }
  Out.FaultsInjected = Injector.injectedCount();
  Out.FaultsCleared = Injector.clearedCount();
  foldAuditSummary(Out, Sim.auditor());
  finishOutcome(Out, rcsystem::MonitoringConfig().JunctionCriticalTempC);
  return Out;
}

Expected<rcsystem::RackConfig> resolveRack(const Scenario &S) {
  rcsystem::RackConfig Rack;
  if (S.Design == "skat")
    Rack = core::makeSkatRack();
  else if (S.Design == "skat-plus")
    Rack = core::makeSkatPlusRack();
  else
    return Expected<rcsystem::RackConfig>::error(
        "faults: rack design '" + S.Design +
        "' is unknown (use skat or skat-plus)");
  if (!S.ModuleConfigPath.empty()) {
    auto Module = core::loadModuleConfigFile(S.ModuleConfigPath);
    if (!Module)
      return Expected<rcsystem::RackConfig>(Module.status());
    Rack.Module = *Module;
  }
  if (Rack.Module.Cooling != rcsystem::CoolingKind::Immersion)
    return Expected<rcsystem::RackConfig>::error(
        "faults: rack-level scenarios need immersion modules");
  return Rack;
}

Expected<ScenarioOutcome> runRackScenario(const Scenario &S,
                                          uint64_t HazardStream) {
  auto Rack = resolveRack(S);
  if (!Rack)
    return Expected<ScenarioOutcome>(Rack.status());
  const size_t NumModules = static_cast<size_t>(Rack->NumModules);
  const double BaseUtilization =
      std::max(Rack->Module.Load.Utilization, 1e-6);

  std::vector<FaultSpec> Schedule = S.Faults;
  std::vector<FaultSpec> Sampled =
      sampleFaultSchedule(S.Hazards, S.DurationS, S.Seed, HazardStream);
  Schedule.insert(Schedule.end(), Sampled.begin(), Sampled.end());

  ScenarioOutcome Out;
  Out.Name = S.Name;
  Out.DurationS = S.DurationS;

  FaultInjector Injector(std::move(Schedule));
  Injector.setEventCallback(
      [&Out](const FaultEvent &Event) { Out.Events.push_back(Event); });

  sim::RackTransientSimulator Sim(
      *Rack, core::makeNominalConditions().AmbientAirTempC);
  Sim.enableAudit();
  Sim.setPlantModifier(
      [&Injector, NumModules](double TimeS, sim::RackPlantEffects &Effects) {
        Injector.rackPlantEffectsAt(TimeS, NumModules, Effects);
      });
  Sim.setSensorTransform(
      [&Injector](double TimeS, double *Values, size_t NumValues) {
        Injector.transformReadings(TimeS, Values, NumValues);
      });

  Sim.supervisor().setTransitionCallback(
      [&Out](const monitor::AlarmTransition &Transition) {
        if (Out.TimeToFirstCriticalS < 0.0 &&
            monitor::alarmStateLevel(Transition.To) ==
                rcsystem::AlarmLevel::Critical)
          Out.TimeToFirstCriticalS = Transition.TimeS;
        Out.Events.push_back({Transition.TimeS, "alarm", Transition.Sensor,
                              std::string(monitor::alarmStateName(
                                  Transition.From)) +
                                  "->" +
                                  monitor::alarmStateName(Transition.To),
                              0, 0.0});
      });

  // Rack policy state shared across control periods.
  struct PolicyState {
    int Streak = 0;
    std::vector<bool> SeenDown;
    std::vector<bool> Commanded;
  };
  auto State = std::make_shared<PolicyState>();
  State->SeenDown.assign(NumModules, false);
  State->Commanded.assign(NumModules, false);

  const DegradationPolicyConfig Policy = S.Policy;
  auto migrateFrom = [&Out, BaseUtilization, Policy](
                         size_t From, const sim::RackControlState &Control,
                         sim::RackControlCommands &Commands) {
    const std::vector<bool> &Down = *Control.ModuleDown;
    std::vector<double> Utilization(Down.size(), 0.0);
    std::vector<bool> Available(Down.size(), false);
    for (size_t M = 0; M != Down.size(); ++M) {
      bool Up = !Down[M] && !Commands.ForceShutdown[M];
      Utilization[M] = Up ? BaseUtilization * Commands.UtilizationScale[M]
                          : 0.0;
      Available[M] = Up && M != From;
    }
    double Moved = BaseUtilization * Commands.UtilizationScale[From];
    if (Moved <= 0.0)
      return;
    // Seed the source utilization so the planner knows what moves.
    std::vector<double> Source = Utilization;
    Source[From] = Moved;
    workload::MigrationPlan Plan = workload::planMigration(
        Source, Available, *Control.JunctionTempC, From,
        Policy.UtilizationBound, workload::PlacementPolicy::CoolestFirst);
    std::ostringstream Detail;
    Detail << "moved " << Moved - Plan.UnplacedUtilization << " of "
           << Moved << " utilization to";
    for (int Target : Plan.Targets) {
      Commands.UtilizationScale[Target] =
          (Utilization[Target] + Plan.AddedUtilization[Target]) /
          BaseUtilization;
      Detail << " m" << Target;
    }
    if (Plan.Targets.empty())
      Detail << " nowhere (no headroom)";
    Out.Events.push_back({Control.TimeS, "migrate",
                          "module" + std::to_string(From), Detail.str(),
                          static_cast<int>(From), 0.0});
    ++Out.ActionsTaken;
  };

  if (Policy.Enabled) {
    Sim.setControlPolicy([&Out, State, Policy, migrateFrom](
                             const sim::RackControlState &Control,
                             sim::RackControlCommands &Commands) {
      const std::vector<bool> &Down = *Control.ModuleDown;
      const std::vector<double> &Junction = *Control.JunctionTempC;
      // Announce protection trips the policy did not command, and
      // migrate their work away.
      for (size_t M = 0; M != Down.size(); ++M) {
        if (!Down[M] || State->SeenDown[M])
          continue;
        State->SeenDown[M] = true;
        if (!State->Commanded[M]) {
          Out.Events.push_back({Control.TimeS, "trip",
                                "module" + std::to_string(M),
                                "protection latched module off",
                                static_cast<int>(M), 0.0});
          if (Policy.MigrateLoad)
            migrateFrom(M, Control, Commands);
        }
      }
      if (Control.Report.Worst < rcsystem::AlarmLevel::Critical) {
        State->Streak = 0;
        return;
      }
      ++State->Streak;
      // Hottest module still running is the degradation target.
      int Hottest = -1;
      for (size_t M = 0; M != Junction.size(); ++M) {
        if (Down[M] || Commands.ForceShutdown[M])
          continue;
        if (Hottest < 0 || Junction[M] > Junction[Hottest])
          Hottest = static_cast<int>(M);
      }
      if (Hottest < 0)
        return;
      if (State->Streak >= Policy.CriticalPeriodsToShutdown) {
        if (Policy.MigrateLoad)
          migrateFrom(static_cast<size_t>(Hottest), Control, Commands);
        Commands.ForceShutdown[Hottest] = true;
        State->Commanded[Hottest] = true;
        Out.Events.push_back({Control.TimeS, "action", "shutdown",
                              "staged shutdown of module " +
                                  std::to_string(Hottest),
                              Hottest, 0.0});
        ++Out.ActionsTaken;
        State->Streak = 0;
      } else {
        double Shed = std::max(Commands.ClockScale[Hottest] -
                                   Policy.ShedStepFraction,
                               Policy.ClockFloorFraction);
        if (Shed < Commands.ClockScale[Hottest]) {
          Commands.ClockScale[Hottest] = Shed;
          Out.Events.push_back({Control.TimeS, "action", "reduce_clock",
                                "shed module " + std::to_string(Hottest) +
                                    " clock to " + std::to_string(Shed),
                                Hottest, 0.0});
          ++Out.ActionsTaken;
        }
      }
    });
  }

  size_t NumSamples = 0;
  double UpSum = 0.0, ThroughputSum = 0.0;
  Sim.setSampleCallback([&](const sim::RackTraceSample &Sample) {
    ++NumSamples;
    UpSum += static_cast<double>(Rack->NumModules - Sample.ModulesShutDown) /
             static_cast<double>(Rack->NumModules);
    ThroughputSum += Sample.ThroughputFraction;
    Out.MaxJunctionC = std::max(Out.MaxJunctionC, Sample.MaxJunctionTempC);
    Out.FinalJunctionC = Sample.MaxJunctionTempC;
    Out.FinalAlarm = Sample.Alarm;
    Out.ModulesShutDown = Sample.ModulesShutDown;
    Out.JunctionSampleC.push_back(Sample.MaxJunctionTempC);
  });

  auto Trace = Sim.run(S.DurationS);
  if (!Trace)
    return Expected<ScenarioOutcome>(Trace.status());

  if (NumSamples != 0) {
    Out.AvailabilityFraction = UpSum / static_cast<double>(NumSamples);
    Out.ThroughputRetainedFraction =
        ThroughputSum / static_cast<double>(NumSamples);
  }
  Out.FaultsInjected = Injector.injectedCount();
  Out.FaultsCleared = Injector.clearedCount();
  foldAuditSummary(Out, Sim.auditor());
  finishOutcome(Out, sim::RackTransientConfig().ProtectionTripC);
  return Out;
}

} // namespace

Expected<ScenarioOutcome> rcs::faults::runScenario(const Scenario &S,
                                                   uint64_t HazardStream) {
  telemetry::Registry &Telemetry = telemetry::Registry::global();
  static telemetry::Timer &RunTimer = Telemetry.timer("faults.scenario.run");
  static telemetry::Counter &RunCount =
      Telemetry.counter("faults.scenario.runs");
  static telemetry::Counter &InjectionCount =
      Telemetry.counter("faults.scenario.injections");
  telemetry::ScopedTimer Timer(RunTimer);
  auto Out = S.RackLevel ? runRackScenario(S, HazardStream)
                         : runModuleScenario(S, HazardStream);
  if (Out) {
    RunCount.add();
    InjectionCount.add(static_cast<uint64_t>(Out->FaultsInjected));
    if (Telemetry.tracingEnabled())
      Telemetry.emitEvent(
          "faults.scenario.done",
          {{"scenario", Out->Name},
           {"availability", Out->AvailabilityFraction},
           {"throughput", Out->ThroughputRetainedFraction},
           {"max_junction_C", Out->MaxJunctionC}});
  }
  return Out;
}
