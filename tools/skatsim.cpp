//===- tools/skatsim.cpp - Command-line driver --------------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the library:
///
///   skatsim list
///   skatsim solve <design> [--ambient C] [--water C] [--water-lpm L]
///                          [--util U] [--clock F]
///   skatsim rack [--ambient C] [--isolate N] [--skat-plus]
///   skatsim transient <design> [--hours H] [--pump-fail-h T] [--csv FILE]
///   skatsim setpoint <design> [--limit C]
///   skatsim profile <command> [args...] [--profile-out FILE]
///   skatsim audit <command> [args...] [--audit-out FILE]
///                 [--audit-trace FILE]
///
/// Every command additionally accepts `--trace FILE` (structured event
/// trace; `.otlp.jsonl` selects the OTLP-style span schema, other
/// `.jsonl` JSON Lines, anything else Chrome trace_event JSON) and
/// `--metrics FILE` (end-of-run counter/timer snapshot). `profile` wraps
/// any other command in the span-aggregating profiler, prints the call
/// tree and writes PROFILE_<command>.json. `audit` wraps a command in the
/// physics auditor (docs/AUDIT.md), prints the invariant closure table
/// and writes AUDIT_<command>.json. See docs/OBSERVABILITY.md.
///
/// Designs: rigel2, taygeta, ultrascale-air, skat, skat-plus,
/// skat-plus-naive.
///
//===----------------------------------------------------------------------===//

#include "audit/Audit.h"
#include "core/ConfigIO.h"
#include "core/DesignSpace.h"
#include "core/Designs.h"
#include "faults/Engine.h"
#include "fluids/Fluid.h"
#include "hydraulics/Manifold.h"
#include "faults/Scenario.h"
#include "faults/Sweep.h"
#include "faults/Trace.h"
#include "monitor/Exposition.h"
#include "monitor/FlightRecorder.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "sim/RackTransient.h"
#include "sim/Transient.h"
#include "support/Csv.h"
#include "support/Numerics.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/Units.h"
#include "telemetry/Bench.h"
#include "telemetry/Profile.h"
#include "telemetry/Telemetry.h"
#include "thermal/Fleet.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace rcs;
using namespace rcs::rcsystem;

namespace {

/// Minimal --flag value parser: flags map to the string after them.
class ArgList {
public:
  ArgList(int Argc, char **Argv, int Start) {
    for (int I = Start; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (startsWith(Arg, "--")) {
        std::string Value =
            I + 1 < Argc && !startsWith(Argv[I + 1], "--") ? Argv[++I] : "";
        Flags[Arg.substr(2)] = Value;
      } else {
        Positional.push_back(Arg);
      }
    }
  }

  double getDouble(const std::string &Name, double Default) const {
    auto It = Flags.find(Name);
    if (It == Flags.end())
      return Default;
    char *End = nullptr;
    double Value = std::strtod(It->second.c_str(), &End);
    return End == It->second.c_str() ? Default : Value;
  }
  int getInt(const std::string &Name, int Default) const {
    auto It = Flags.find(Name);
    return It == Flags.end() ? Default : std::atoi(It->second.c_str());
  }
  std::string getString(const std::string &Name,
                        const std::string &Default) const {
    auto It = Flags.find(Name);
    return It == Flags.end() ? Default : It->second;
  }
  bool has(const std::string &Name) const { return Flags.count(Name) != 0; }
  const std::vector<std::string> &positional() const { return Positional; }

private:
  std::map<std::string, std::string> Flags;
  std::vector<std::string> Positional;
};

/// `skatsim audit <command>` state, set in main() before dispatch: the
/// wrapped command runs with a physics auditor armed and finishes by
/// printing the closure table and writing AUDIT_<command>.json.
bool AuditMode = false;
audit::DriftBudgets AuditBudgets;

/// Arms \p Sim's auditor when running under `skatsim audit` and attaches
/// the --audit-trace stream. Returns the auditor (nullptr outside audit
/// mode) for finishAudit.
template <typename SimT>
audit::PhysicsAuditor *maybeEnableAudit(SimT &Sim, const ArgList &Args) {
  if (!AuditMode)
    return nullptr;
  Sim.enableAudit(AuditBudgets);
  std::string TracePath = Args.getString("audit-trace", "");
  if (!TracePath.empty()) {
    Status Attached = Sim.auditor()->attachStream(TracePath);
    if (!Attached.isOk())
      std::fprintf(stderr, "audit: %s\n", Attached.message().c_str());
  }
  return Sim.auditor();
}

/// Closes the audit of one command: finishes the stream, prints the
/// closure table and writes the report. Returns the exit code the audit
/// asks for (1 = a critical budget blown or an artifact unwritable).
int finishAudit(audit::PhysicsAuditor *Auditor, const std::string &Command,
                const ArgList &Args) {
  if (!Auditor)
    return 0;
  int Code = 0;
  if (Auditor->streaming()) {
    Status Finished = Auditor->finishStream();
    if (!Finished.isOk()) {
      std::fprintf(stderr, "audit: %s\n", Finished.message().c_str());
      Code = 1;
    } else {
      std::printf("audit stream written to %s\n",
                  Args.getString("audit-trace", "").c_str());
    }
  }
  const audit::AuditSummary &Summary = Auditor->summary();
  std::printf("\nphysics audit (%s):\n%s", Command.c_str(),
              audit::formatClosureTable(Summary, Auditor->budgets()).c_str());
  std::string ReportPath =
      Args.getString("audit-out", "AUDIT_" + Command + ".json");
  Status Written = audit::writeAuditReport(ReportPath, Command, Summary,
                                           Auditor->budgets());
  if (!Written.isOk()) {
    std::fprintf(stderr, "audit: %s\n", Written.message().c_str());
    return 1;
  }
  std::printf("audit report written to %s\n", ReportPath.c_str());
  if (!Summary.withinBudgets(Auditor->budgets())) {
    std::fprintf(stderr, "audit: drift exceeded a critical budget\n");
    return 1;
  }
  return Code;
}

Expected<ModuleConfig> designByName(const std::string &Name) {
  // One name table for the CLI and the scenario service alike.
  return core::designModuleByName(Name);
}

int cmdList() {
  Table T({"design", "cooling", "FPGAs", "peak TFLOPS", "height"});
  for (const char *Name :
       {"rigel2", "taygeta", "ultrascale-air", "skat", "skat-plus",
        "skat-plus-naive"}) {
    Expected<ModuleConfig> Config = designByName(Name);
    ComputationalModule Module(*Config);
    T.addRow({Name, coolingKindName(Config->Cooling),
              formatString("%d", Module.computeFpgaCount()),
              formatString("%.1f", Module.peakGflops() / 1000.0),
              formatString("%dU", Config->HeightU)});
  }
  std::printf("%s", T.render().c_str());
  return 0;
}

int cmdSolve(const ArgList &Args) {
  Expected<ModuleConfig> Config =
      Args.has("config")
          ? core::loadModuleConfigFile(Args.getString("config", ""))
      : Args.positional().empty()
          ? Expected<ModuleConfig>::error(
                "usage: skatsim solve <design>|--config FILE [--flags]")
          : designByName(Args.positional()[0]);
  if (!Config) {
    std::fprintf(stderr, "error: %s\n", Config.message().c_str());
    return 2;
  }
  ExternalConditions Conditions = core::makeNominalConditions();
  Conditions.AmbientAirTempC = Args.getDouble("ambient", 25.0);
  Conditions.WaterInletTempC = Args.getDouble("water", 18.0);
  Conditions.WaterFlowM3PerS = units::litersPerMinuteToM3PerS(
      Args.getDouble("water-lpm", 18.0));
  fpga::WorkloadPoint Load = Config->Load;
  Load.Utilization = Args.getDouble("util", Load.Utilization);
  Load.ClockFraction = Args.getDouble("clock", Load.ClockFraction);

  ComputationalModule Module(*Config);
  Expected<ModuleThermalReport> Report =
      Module.solveSteadyState(Conditions, Load);
  if (!Report) {
    std::fprintf(stderr, "solve failed: %s\n", Report.message().c_str());
    return 1;
  }
  std::printf("%s (%s)\n\n", Config->Name.c_str(),
              coolingKindName(Config->Cooling));
  Table T({"quantity", "value"});
  T.addRow({"max junction", formatString("%.1f C",
                                         Report->MaxJunctionTempC)});
  T.addRow({"mean junction", formatString("%.1f C",
                                          Report->MeanJunctionTempC)});
  T.addRow({"coolant out / in",
            formatString("%.1f / %.1f C", Report->CoolantHotTempC,
                         Report->CoolantColdTempC)});
  T.addRow({"IT power", formatString("%.0f W", Report->ItPowerW)});
  T.addRow({"total heat", formatString("%.0f W", Report->TotalHeatW)});
  T.addRow({"coolant flow",
            formatString("%.1f l/min",
                         units::m3PerSToLitersPerMinute(
                             Report->CoolantFlowM3PerS))});
  T.addRow({"per-FPGA power",
            Report->Fpgas.empty()
                ? "-"
                : formatString("%.1f W", Report->Fpgas.front().PowerW)});
  T.addRow({"in long-life band",
            Report->WithinReliableLimit ? "yes" : "NO"});
  std::printf("%s", T.render().c_str());
  for (const std::string &Warning : Report->Warnings)
    std::printf("warning: %s\n", Warning.c_str());
  return 0;
}

int cmdRack(const ArgList &Args) {
  RackConfig Config = Args.has("skat-plus") ? core::makeSkatPlusRack()
                                            : core::makeSkatRack();
  Rack TheRack(Config);
  std::optional<int> Isolated;
  if (Args.has("isolate"))
    Isolated = Args.getInt("isolate", 0) - 1; // 1-based on the CLI.
  Expected<RackReport> Report =
      TheRack.solveSteadyState(Args.getDouble("ambient", 25.0), Isolated);
  if (!Report) {
    std::fprintf(stderr, "rack solve failed: %s\n",
                 Report.message().c_str());
    return 1;
  }
  std::printf("%s: %.3f PFLOPS, IT %.1f kW, PUE %.3f, max Tj %.1f C, "
              "imbalance %.2f%%\n",
              Config.Name.c_str(), TheRack.peakPflops(),
              Report->TotalItPowerW / 1000.0, Report->Pue,
              Report->MaxJunctionTempC,
              Report->Balance.ImbalanceFraction * 100.0);
  Table T({"module", "water (l/min)", "max Tj (C)", "state"});
  for (size_t I = 0; I != Report->Modules.size(); ++I) {
    bool Down = nearZero(Report->Modules[I].TotalHeatW);
    T.addRow({formatString("CM %zu", I + 1),
              formatString("%.1f", units::m3PerSToLitersPerMinute(
                                       Report->LoopFlowsM3PerS[I])),
              Down ? "-"
                   : formatString("%.1f",
                                  Report->Modules[I].MaxJunctionTempC),
              Down ? "isolated" : "running"});
  }
  std::printf("%s", T.render().c_str());
  for (const std::string &Warning : Report->Warnings)
    std::printf("warning: %s\n", Warning.c_str());

  // Audit mode additionally solves the rack primary loop standalone and
  // checks the hydraulic invariants of the solution (continuity, edge
  // pressure closure, Newton health) against the drift budgets.
  if (AuditMode) {
    audit::PhysicsAuditor Auditor(AuditBudgets);
    hydraulics::RackHydraulics Loop =
        hydraulics::buildRackPrimaryLoop(Config.Hydraulics);
    auto Water = fluids::makeWater();
    double FlowScale = Config.Hydraulics.PumpRatedFlowM3PerS;
    Expected<hydraulics::FlowSolution> Solution = Loop.Network.solve(
        *Water, Config.ChillerSupplyTempC, FlowScale);
    if (!Solution) {
      std::fprintf(stderr, "audit: hydraulic solve failed: %s\n",
                   Solution.message().c_str());
      return 1;
    }
    Auditor.recordFlowSolution(Loop.Network, *Solution, *Water,
                               Config.ChillerSupplyTempC, FlowScale);
    Auditor.updateAlarms(0.0);
    return finishAudit(&Auditor, "rack", Args);
  }
  return 0;
}

int cmdFleet(const ArgList &Args) {
  thermal::FleetConfig Config;
  Config.NumRacks = static_cast<size_t>(Args.getInt("racks", 64));
  Config.ModulesPerRack = static_cast<size_t>(Args.getInt("modules", 8));
  if (Config.NumRacks == 0 || Config.ModulesPerRack == 0) {
    std::fprintf(stderr,
                 "usage: skatsim fleet [--racks N] [--modules M] "
                 "[--minutes T] [--dt-s S] [--water C] [--excursion-c C] "
                 "[--dense]\n");
    return 2;
  }
  Config.FacilityWaterTemp = units::Celsius(Args.getDouble("water", 18.0));
  thermal::FleetNetwork Fleet = thermal::buildFleetNetwork(Config);
  thermal::ThermalNetwork &Net = Fleet.Net;
  if (Args.has("dense"))
    Net.setSparseThreshold(SIZE_MAX);

  std::printf("fleet: %zu racks x %zu modules, %zu unknowns, %s solve\n",
              Config.NumRacks, Config.ModulesPerRack,
              thermal::fleetUnknowns(Config),
              Net.solvesSparse() ? "sparse" : "dense");

  Expected<std::vector<double>> Steady = Net.solveSteadyState();
  if (!Steady) {
    std::fprintf(stderr, "fleet solve failed: %s\n",
                 Steady.message().c_str());
    return 1;
  }
  double MaxChipC = 0.0;
  for (thermal::NodeId Chip : Fleet.Chips)
    MaxChipC = std::max(MaxChipC, (*Steady)[Chip]);
  double MaxLoopC = 0.0;
  for (thermal::NodeId Loop : Fleet.RackLoops)
    MaxLoopC = std::max(MaxLoopC, (*Steady)[Loop]);

  Table T({"quantity", "value"});
  T.addRow({"total IT heat",
            formatString("%.1f kW", Net.totalSourcePowerW() / 1000.0)});
  T.addRow({"facility heat pickup",
            formatString("%.1f kW",
                         Net.boundaryHeatFlowW(Fleet.Facility, *Steady) /
                             1000.0)});
  T.addRow({"hottest chip", formatString("%.1f C", MaxChipC)});
  T.addRow({"hottest rack loop", formatString("%.1f C", MaxLoopC)});
  T.addRow({"steady residual",
            formatString("%.2e W", Net.steadyStateResidualW(*Steady))});
  T.addRow({"solver factor memory",
            formatString("%.1f kB", Net.solverMemoryBytes() / 1024.0)});
  std::printf("%s", T.render().c_str());

  // Transient leg: a facility-water excursion ridden out step by step.
  // The implicit-Euler factor is built once; the excursion itself only
  // touches the right-hand side.
  std::unique_ptr<audit::PhysicsAuditor> Auditor;
  if (AuditMode) {
    Auditor = std::make_unique<audit::PhysicsAuditor>(AuditBudgets);
    Auditor->noteSparseSolver(Net.solvesSparse());
    std::string TracePath = Args.getString("audit-trace", "");
    if (!TracePath.empty()) {
      Status Attached = Auditor->attachStream(TracePath);
      if (!Attached.isOk())
        std::fprintf(stderr, "audit: %s\n", Attached.message().c_str());
    }
  }
  double Minutes = Args.getDouble("minutes", 10.0);
  double DtS = Args.getDouble("dt-s", 5.0);
  int Steps = std::max(1, static_cast<int>(Minutes * 60.0 / DtS));
  Net.setBoundaryTemp(Fleet.Facility, Args.getDouble("water", 18.0) +
                                          Args.getDouble("excursion-c", 6.0));
  std::vector<double> Temps = *Steady;
  double WorstChipC = MaxChipC;
  for (int Step = 0; Step != Steps; ++Step) {
    std::vector<double> Before = Temps;
    Status Stepped = Net.stepTransient(Temps, DtS);
    if (!Stepped.isOk()) {
      std::fprintf(stderr, "fleet step failed: %s\n",
                   Stepped.message().c_str());
      return 1;
    }
    for (thermal::NodeId Chip : Fleet.Chips)
      WorstChipC = std::max(WorstChipC, Temps[Chip]);
    if (Auditor) {
      Auditor->recordThermalStep(Net, Before, Temps, DtS);
      double TimeS = DtS * (Step + 1);
      Auditor->updateAlarms(TimeS);
      Auditor->emitStreamRecord(TimeS);
    }
  }
  std::printf("after %.0f min at +%.1f C facility water: hottest chip "
              "%.1f C (was %.1f C)\n",
              Minutes, Args.getDouble("excursion-c", 6.0), WorstChipC,
              MaxChipC);
  if (AuditMode)
    return finishAudit(Auditor.get(), "fleet", Args);
  return 0;
}

int cmdTransient(const ArgList &Args) {
  if (Args.positional().empty()) {
    std::fprintf(stderr, "usage: skatsim transient <design> [--flags]\n");
    return 2;
  }
  Expected<ModuleConfig> Config = designByName(Args.positional()[0]);
  if (!Config) {
    std::fprintf(stderr, "error: %s\n", Config.message().c_str());
    return 2;
  }
  if (Config->Cooling != CoolingKind::Immersion) {
    std::fprintf(stderr,
                 "error: the transient simulator models immersion designs\n");
    return 2;
  }
  double Hours = Args.getDouble("hours", 4.0);
  sim::TransientSimulator Simulator(*Config, core::makeNominalConditions());
  if (Args.has("pump-fail-h"))
    Simulator.schedulePumpSpeed(Args.getDouble("pump-fail-h", 1.0) * 3600.0,
                                0.0);
  audit::PhysicsAuditor *Auditor = maybeEnableAudit(Simulator, Args);
  Expected<std::vector<sim::TraceSample>> Trace =
      Simulator.run(Hours * 3600.0);
  if (!Trace) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 Trace.message().c_str());
    return 1;
  }
  std::string CsvPath = Args.getString("csv", "");
  if (!CsvPath.empty()) {
    CsvWriter Csv({"time_s", "junction_C", "oil_C", "power_W", "alarm"});
    for (const sim::TraceSample &Sample : *Trace)
      Csv.addRow({formatString("%.0f", Sample.TimeS),
                  formatString("%.2f", Sample.MaxJunctionTempC),
                  formatString("%.2f", Sample.OilTempC),
                  formatString("%.0f", Sample.TotalPowerW),
                  alarmLevelName(Sample.Alarm)});
    Status Saved = Csv.writeFile(CsvPath);
    if (!Saved.isOk()) {
      std::fprintf(stderr, "csv: %s\n", Saved.message().c_str());
      return 1;
    }
    std::printf("wrote %zu samples to %s\n", Trace->size(),
                CsvPath.c_str());
  }
  const sim::TraceSample &Last = Trace->back();
  std::printf("t=%.1fh junction %.1f C, oil %.1f C, power %.1f kW, "
              "alarm %s%s\n",
              Last.TimeS / 3600.0, Last.MaxJunctionTempC, Last.OilTempC,
              Last.TotalPowerW / 1000.0, alarmLevelName(Last.Alarm),
              Last.ShutDown ? " (shut down)" : "");
  return finishAudit(Auditor, "transient", Args);
}

/// Shared tail of `skatsim monitor`: reports the flight recorder and
/// writes the Prometheus snapshot. Returns the process exit code.
int finishMonitor(const ArgList &Args, monitor::FlightRecorder *Recorder,
                  monitor::SnapshotWriter *Snapshots,
                  size_t NumTransitions) {
  std::printf("%zu alarm transitions\n", NumTransitions);
  if (Recorder) {
    if (Recorder->triggered()) {
      const Status &DumpStatus = Recorder->lastDumpStatus();
      if (!DumpStatus.isOk()) {
        std::fprintf(stderr, "flight recorder: %s\n",
                     DumpStatus.message().c_str());
        return 1;
      }
      std::printf("flight recorder: dumped %zu frames to %s\n",
                  Recorder->framesHeld(),
                  Args.getString("flight", "").c_str());
    } else {
      std::printf("flight recorder: armed, never triggered (%zu frames "
                  "seen)\n",
                  Recorder->framesRecorded());
    }
  }
  if (Snapshots) {
    Status Closed = Snapshots->close();
    if (!Closed.isOk()) {
      std::fprintf(stderr, "snapshots: %s\n", Closed.message().c_str());
      return 1;
    }
    std::printf("wrote %zu metric snapshots to %s\n",
                Snapshots->numSnapshots(),
                Args.getString("snapshots", "").c_str());
  }
  std::string PromPath = Args.getString("prom", "");
  if (!PromPath.empty()) {
    Status Written = monitor::writePrometheusFile(
        telemetry::Registry::global(), PromPath);
    if (!Written.isOk()) {
      std::fprintf(stderr, "prom: %s\n", Written.message().c_str());
      return 1;
    }
    std::printf("wrote prometheus metrics to %s\n", PromPath.c_str());
  }
  return 0;
}

int cmdMonitor(const ArgList &Args) {
  bool RackMode = Args.has("rack");
  if (!RackMode && Args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: skatsim monitor <design>|--rack [--flags]\n");
    return 2;
  }
  double Hours = Args.getDouble("hours", 2.0);
  double DurationS = Hours * 3600.0;

  std::unique_ptr<monitor::SnapshotWriter> Snapshots;
  if (Args.has("snapshots")) {
    Snapshots = std::make_unique<monitor::SnapshotWriter>(
        Args.getString("snapshots", ""),
        Args.getDouble("snapshot-period", 600.0));
    if (!Snapshots->isOpen()) {
      std::fprintf(stderr, "snapshots: %s\n",
                   Snapshots->status().message().c_str());
      return 2;
    }
  }
  monitor::FlightRecorderConfig FlightConfig;
  FlightConfig.DumpPath = Args.getString("flight", "");
  FlightConfig.CapacityFrames =
      static_cast<size_t>(Args.getInt("flight-frames", 600));
  FlightConfig.PostTriggerFrames =
      static_cast<size_t>(Args.getInt("flight-tail", 30));

  auto PrintTransition = [](const monitor::AlarmTransition &T) {
    std::printf("alarm t=%.0fs %s: %s -> %s (value=%.4g)\n", T.TimeS,
                T.Sensor.c_str(), monitor::alarmStateName(T.From),
                monitor::alarmStateName(T.To), T.Value);
  };

  if (RackMode) {
    RackConfig Config = Args.has("skat-plus") ? core::makeSkatPlusRack()
                                              : core::makeSkatRack();
    sim::RackTransientSimulator Simulator(Config,
                                          Args.getDouble("ambient", 25.0));
    if (Args.has("chiller-fail-h"))
      Simulator.scheduleChillerCapacity(
          Args.getDouble("chiller-fail-h", 0.5) * 3600.0, 0.0);
    if (Args.has("chiller-repair-h"))
      Simulator.scheduleChillerCapacity(
          Args.getDouble("chiller-repair-h", 1.0) * 3600.0, 1.0);
    std::unique_ptr<monitor::FlightRecorder> Recorder;
    if (!FlightConfig.DumpPath.empty()) {
      Recorder = std::make_unique<monitor::FlightRecorder>(
          sim::RackTransientSimulator::flightChannels(), FlightConfig);
      Simulator.attachFlightRecorder(Recorder.get());
    }
    audit::PhysicsAuditor *Auditor = maybeEnableAudit(Simulator, Args);
    Simulator.supervisor().setTransitionCallback(PrintTransition);
    if (Snapshots)
      Simulator.setSampleCallback([&](const sim::RackTraceSample &S) {
        (void)Snapshots->maybeSample(S.TimeS);
      });
    Expected<std::vector<sim::RackTraceSample>> Trace =
        Simulator.run(DurationS);
    if (!Trace) {
      std::fprintf(stderr, "simulation failed: %s\n",
                   Trace.message().c_str());
      return 1;
    }
    if (Args.has("ack"))
      Simulator.supervisor().acknowledgeAll(DurationS);
    const sim::RackTraceSample &Last = Trace->back();
    std::printf("t=%.1fh water %.1f C, max junction %.1f C, %d modules "
                "down, alarm %s\n",
                Last.TimeS / 3600.0, Last.WaterTempC,
                Last.MaxJunctionTempC, Last.ModulesShutDown,
                alarmLevelName(Last.Alarm));
    int Code = finishMonitor(Args, Recorder.get(), Snapshots.get(),
                             Simulator.supervisor().allTransitions().size());
    int AuditCode = finishAudit(Auditor, "monitor", Args);
    return Code != 0 ? Code : AuditCode;
  }

  Expected<ModuleConfig> Config = designByName(Args.positional()[0]);
  if (!Config) {
    std::fprintf(stderr, "error: %s\n", Config.message().c_str());
    return 2;
  }
  if (Config->Cooling != CoolingKind::Immersion) {
    std::fprintf(stderr,
                 "error: the monitor runs on immersion designs\n");
    return 2;
  }
  sim::TransientSimulator Simulator(*Config, core::makeNominalConditions());
  if (Args.has("pump-fail-h"))
    Simulator.schedulePumpSpeed(
        Args.getDouble("pump-fail-h", 1.0) * 3600.0, 0.0);
  if (Args.has("pump-repair-h"))
    Simulator.schedulePumpSpeed(
        Args.getDouble("pump-repair-h", 1.0) * 3600.0, 1.0);
  if (Args.has("water-fail-h"))
    Simulator.scheduleWaterFlow(
        Args.getDouble("water-fail-h", 1.0) * 3600.0, 0.0);
  std::unique_ptr<monitor::FlightRecorder> Recorder;
  if (!FlightConfig.DumpPath.empty()) {
    Recorder = std::make_unique<monitor::FlightRecorder>(
        sim::TransientSimulator::flightChannels(), FlightConfig);
    Simulator.attachFlightRecorder(Recorder.get());
  }
  audit::PhysicsAuditor *Auditor = maybeEnableAudit(Simulator, Args);
  Simulator.supervisor().setTransitionCallback(PrintTransition);
  if (Snapshots)
    Simulator.setSampleCallback([&](const sim::TraceSample &S) {
      (void)Snapshots->maybeSample(S.TimeS);
    });
  Expected<std::vector<sim::TraceSample>> Trace = Simulator.run(DurationS);
  if (!Trace) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 Trace.message().c_str());
    return 1;
  }
  if (Args.has("ack"))
    Simulator.supervisor().acknowledgeAll(DurationS);
  const sim::TraceSample &Last = Trace->back();
  std::printf("t=%.1fh junction %.1f C, oil %.1f C, alarm %s%s\n",
              Last.TimeS / 3600.0, Last.MaxJunctionTempC, Last.OilTempC,
              alarmLevelName(Last.Alarm),
              Last.ShutDown ? " (shut down)" : "");
  int Code = finishMonitor(Args, Recorder.get(), Snapshots.get(),
                           Simulator.supervisor().allTransitions().size());
  int AuditCode = finishAudit(Auditor, "monitor", Args);
  return Code != 0 ? Code : AuditCode;
}

int cmdSetpoint(const ArgList &Args) {
  if (Args.positional().empty()) {
    std::fprintf(stderr, "usage: skatsim setpoint <design> [--limit C]\n");
    return 2;
  }
  Expected<ModuleConfig> Config = designByName(Args.positional()[0]);
  if (!Config) {
    std::fprintf(stderr, "error: %s\n", Config.message().c_str());
    return 2;
  }
  double Limit = Args.getDouble("limit", 55.0);
  Expected<double> Setpoint = core::maxWaterSetpointForJunctionLimit(
      *Config, core::makeNominalConditions(), Limit);
  if (!Setpoint) {
    std::fprintf(stderr, "search failed: %s\n", Setpoint.message().c_str());
    return 1;
  }
  std::printf("warmest chilled-water setpoint holding Tj <= %.1f C: "
              "%.1f C\n",
              Limit, *Setpoint);
  return 0;
}

Expected<faults::Scenario> loadFaultsScenario(const ArgList &Args) {
  if (Args.positional().size() < 2)
    return Expected<faults::Scenario>::error(
        "usage: skatsim faults run|sweep <scenario.json>");
  auto Scenario = faults::loadScenarioFile(Args.positional()[1]);
  if (!Scenario)
    return Scenario;
  if (Args.has("seed"))
    Scenario->Seed = static_cast<uint64_t>(Args.getInt("seed", 0));
  if (Args.has("hours"))
    Scenario->DurationS = Args.getDouble("hours", 4.0) * 3600.0;
  return Scenario;
}

int cmdFaultsRun(const ArgList &Args) {
  auto Scenario = loadFaultsScenario(Args);
  if (!Scenario) {
    std::fprintf(stderr, "error: %s\n", Scenario.message().c_str());
    return 2;
  }
  uint64_t Replicate = static_cast<uint64_t>(Args.getInt("replicate", 0));
  Expected<faults::ScenarioOutcome> Outcome =
      faults::runScenario(*Scenario, Replicate);
  if (!Outcome) {
    std::fprintf(stderr, "error: %s\n", Outcome.message().c_str());
    return 1;
  }
  std::printf("scenario %s (%s, %.1f h, seed %llu)\n",
              Outcome->Name.c_str(),
              Scenario->RackLevel ? "rack" : "module",
              Outcome->DurationS / 3600.0,
              static_cast<unsigned long long>(Scenario->Seed));
  std::printf("  availability          %.4f\n", Outcome->AvailabilityFraction);
  std::printf("  throughput retained   %.4f\n",
              Outcome->ThroughputRetainedFraction);
  std::printf("  max junction          %.1f C (final %.1f C)\n",
              Outcome->MaxJunctionC, Outcome->FinalJunctionC);
  if (Outcome->TimeToFirstCriticalS >= 0.0)
    std::printf("  first Critical alarm  %.1f min\n",
                Outcome->TimeToFirstCriticalS / 60.0);
  else
    std::printf("  first Critical alarm  never\n");
  std::printf("  faults injected/cleared  %d/%d; actions %d; modules "
              "down %d\n",
              Outcome->FaultsInjected, Outcome->FaultsCleared,
              Outcome->ActionsTaken, Outcome->ModulesShutDown);
  std::printf("  safe degraded end     %s\n",
              Outcome->SafeDegradedEnd ? "yes" : "NO");
  std::printf("  physics audit         max energy frac %.3e, violations "
              "%llu, within budget %s\n",
              Outcome->AuditMaxEnergyFraction,
              static_cast<unsigned long long>(Outcome->AuditViolationCount),
              Outcome->AuditWithinBudget ? "yes" : "NO");
  std::printf("event timeline (%zu events):\n", Outcome->Events.size());
  for (const faults::FaultEvent &Event : Outcome->Events)
    std::printf("  %9.1f s  %-8s %-20s %s\n", Event.TimeS,
                Event.Event.c_str(), Event.Fault.c_str(),
                Event.Detail.c_str());
  std::string EventsPath = Args.getString("events", "");
  if (!EventsPath.empty()) {
    Status Written =
        faults::writeFaultEventTrace(EventsPath, *Outcome, Scenario->Seed);
    if (!Written.isOk()) {
      std::fprintf(stderr, "events: %s\n", Written.message().c_str());
      return 1;
    }
    std::printf("fault-event trace written to %s\n", EventsPath.c_str());
  }
  return Outcome->SafeDegradedEnd ? 0 : 1;
}

int cmdFaultsSweep(const ArgList &Args) {
  auto Scenario = loadFaultsScenario(Args);
  if (!Scenario) {
    std::fprintf(stderr, "error: %s\n", Scenario.message().c_str());
    return 2;
  }
  faults::SweepConfig Config;
  Config.NumReplicates = Args.getInt("replicates", 16);
  Config.NumThreads = Args.getInt("threads", 1);
  // Live progress is a side channel (docs/OBSERVABILITY.md): the report
  // stays bit-identical whether or not it is enabled.
  std::FILE *ProgressOut = nullptr;
  std::string ProgressPath = Args.getString("progress", "");
  if (Args.has("progress")) {
    if (ProgressPath.empty()) {
      std::fprintf(stderr, "progress: --progress requires a file path\n");
      return 2;
    }
    ProgressOut = std::fopen(ProgressPath.c_str(), "w");
    if (!ProgressOut) {
      std::fprintf(stderr, "progress: cannot open '%s'\n",
                   ProgressPath.c_str());
      return 2;
    }
    Config.ProgressPeriodS = Args.getDouble("progress-period", 1.0);
    Config.OnProgress = [ProgressOut](const faults::SweepProgress &P) {
      std::fprintf(ProgressOut,
                   "{\"kind\": \"sweep_progress\", \"completed\": %d, "
                   "\"total\": %d, \"elapsed_s\": %.3f, \"eta_s\": %.3f, "
                   "\"availability_estimate\": %.6f, \"criticals\": %d}\n",
                   P.Completed, P.Total, P.ElapsedS, P.EtaS,
                   P.MeanAvailabilityFraction, P.Criticals);
      std::fflush(ProgressOut);
    };
  }
  Expected<faults::SweepReport> Report = faults::runSweep(*Scenario, Config);
  if (ProgressOut) {
    std::fclose(ProgressOut);
    std::printf("sweep progress written to %s\n", ProgressPath.c_str());
  }
  if (!Report) {
    std::fprintf(stderr, "error: %s\n", Report.message().c_str());
    return 1;
  }
  std::printf("reliability sweep: %s, %d replicates, seed %llu, %d "
              "thread(s)\n",
              Scenario->Name.c_str(), Report->NumReplicates,
              static_cast<unsigned long long>(Report->Seed),
              Config.NumThreads);
  std::printf("  availability      mean %.4f  min %.4f\n",
              Report->MeanAvailabilityFraction,
              Report->MinAvailabilityFraction);
  std::printf("  throughput        mean %.4f\n",
              Report->MeanThroughputRetainedFraction);
  std::printf("  max junction      mean %.1f C  peak %.1f C\n",
              Report->MeanMaxJunctionC, Report->PeakJunctionC);
  std::printf("  went Critical     %.0f%% of replicates\n",
              Report->CriticalFraction * 100.0);
  if (Report->MttfEstimateHours >= 0.0)
    std::printf("  MTTF estimate     %.1f h (horizon-censored)\n",
                Report->MttfEstimateHours);
  else
    std::printf("  MTTF estimate     beyond horizon (no Criticals)\n");
  std::printf("  physics audit     worst energy frac %.3e, budget "
              "breaches %d\n",
              Report->AuditWorstEnergyFraction,
              Report->AuditBudgetBreaches);
  if (Report->FailedReplicates != 0)
    std::printf("  FAILED replicates %d\n", Report->FailedReplicates);
  uint64_t BinnedSamples = 0;
  for (uint64_t N : Report->JunctionHistogramCounts)
    BinnedSamples += N;
  std::printf("thermal excursions (worst junction, %llu samples binned):\n",
              static_cast<unsigned long long>(BinnedSamples));
  for (int Bin = 0; Bin != faults::SweepReport::NumHistogramBins; ++Bin) {
    uint64_t N = Report->JunctionHistogramCounts[static_cast<size_t>(Bin)];
    if (N == 0)
      continue;
    double Low = faults::SweepReport::HistogramMinC +
                 Bin * faults::SweepReport::HistogramBinWidthC;
    std::printf("  [%5.1f, %5.1f) C  %llu\n", Low,
                Low + faults::SweepReport::HistogramBinWidthC,
                static_cast<unsigned long long>(N));
  }
  if (!Args.has("no-bench")) {
    telemetry::BenchReport Bench("faults_sweep");
    Bench.addMetric("scenario", Scenario->Name);
    Bench.addMetric("replicates", Report->NumReplicates);
    Bench.addMetric("threads", Config.NumThreads);
    Bench.addMetric("seed", static_cast<long long>(Report->Seed));
    Bench.addMetric("mean_availability", Report->MeanAvailabilityFraction);
    Bench.addMetric("min_availability", Report->MinAvailabilityFraction);
    Bench.addMetric("mean_throughput_retained",
                    Report->MeanThroughputRetainedFraction);
    Bench.addMetric("mean_max_junction_C", Report->MeanMaxJunctionC);
    Bench.addMetric("peak_junction_C", Report->PeakJunctionC);
    Bench.addMetric("critical_fraction", Report->CriticalFraction);
    Bench.addMetric("mttf_estimate_h", Report->MttfEstimateHours);
    Bench.addMetric("failed_replicates", Report->FailedReplicates);
    Bench.addMetric("audit_worst_energy_fraction",
                    Report->AuditWorstEnergyFraction);
    Bench.addMetric("audit_budget_breaches", Report->AuditBudgetBreaches);
    Bench.writeOrWarn(Report->FailedReplicates == 0);
    std::printf("bench summary written to %s\n", Bench.path().c_str());
  }
  return Report->FailedReplicates == 0 ? 0 : 1;
}

int cmdFaults(const ArgList &Args) {
  if (Args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: skatsim faults run <scenario.json> [--events FILE]"
                 " [--replicate N]\n"
                 "       skatsim faults sweep <scenario.json>"
                 " [--replicates N] [--threads N] [--no-bench]\n"
                 "both accept [--seed N] [--hours H] overrides\n");
    return 2;
  }
  const std::string &Sub = Args.positional()[0];
  if (Sub == "run")
    return cmdFaultsRun(Args);
  if (Sub == "sweep")
    return cmdFaultsSweep(Args);
  std::fprintf(stderr, "faults: unknown subcommand '%s' (run|sweep)\n",
               Sub.c_str());
  return 2;
}

//===----------------------------------------------------------------------===//
// serve: the scenario-service daemon (docs/SERVICE.md)
//===----------------------------------------------------------------------===//

/// Runs one JSONL session over a stream pair: emits the header line,
/// submits each request line (flushing full batches through the pool),
/// drains the tail, and closes with the daemon-lifetime summary.
int serveStream(service::ScenarioService &Service, std::FILE *In,
                std::FILE *Out) {
  auto Emit = [Out](const std::string &Line) {
    std::fputs(Line.c_str(), Out);
    std::fputc('\n', Out);
  };
  Emit(service::renderServiceHeader());
  std::fflush(Out);
  std::vector<std::string> Ready;
  size_t Queued = 0;
  auto Flush = [&]() {
    Ready.clear();
    size_t Drained = Service.drain(Ready);
    Queued -= std::min(Queued, Drained);
    for (const std::string &Line : Ready)
      Emit(Line);
    std::fflush(Out);
    return Drained;
  };
  char *Buffer = nullptr;
  size_t Capacity = 0;
  ssize_t Length;
  while ((Length = getline(&Buffer, &Capacity, In)) != -1) {
    std::string_view Line(Buffer, static_cast<size_t>(Length));
    while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
      Line.remove_suffix(1);
    if (Line.empty())
      continue;
    // Parse errors and queue-full rejections answer immediately; queued
    // requests answer from the next batch drain, in submission order.
    std::optional<std::string> Immediate = Service.submit(Line);
    if (Immediate) {
      Emit(*Immediate);
      std::fflush(Out);
    } else if (++Queued >=
               static_cast<size_t>(Service.config().MaxBatch)) {
      Flush();
    }
  }
  std::free(Buffer);
  while (Flush() != 0)
    ;
  Emit(service::renderServiceSummary(Service.summary()));
  return std::fflush(Out) == 0 ? 0 : 1;
}

/// Accept loop for --port (loopback TCP) and --socket (Unix domain):
/// one JSONL session per connection, sessions served sequentially so the
/// evaluation pool is never oversubscribed.
int serveSocket(service::ScenarioService &Service, const ArgList &Args) {
  std::string SocketPath = Args.getString("socket", "");
  int Listener = -1;
  if (!SocketPath.empty()) {
    sockaddr_un Addr{};
    if (SocketPath.size() >= sizeof(Addr.sun_path)) {
      std::fprintf(stderr, "serve: socket path too long\n");
      return 2;
    }
    Listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Listener < 0) {
      std::fprintf(stderr, "serve: socket: %s\n", std::strerror(errno));
      return 1;
    }
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, SocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    ::unlink(SocketPath.c_str());
    if (::bind(Listener, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0) {
      std::fprintf(stderr, "serve: bind %s: %s\n", SocketPath.c_str(),
                   std::strerror(errno));
      ::close(Listener);
      return 1;
    }
  } else {
    Listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Listener < 0) {
      std::fprintf(stderr, "serve: socket: %s\n", std::strerror(errno));
      return 1;
    }
    int One = 1;
    ::setsockopt(Listener, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port =
        htons(static_cast<uint16_t>(Args.getInt("port", 0)));
    if (::bind(Listener, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0) {
      std::fprintf(stderr, "serve: bind: %s\n", std::strerror(errno));
      ::close(Listener);
      return 1;
    }
  }
  if (::listen(Listener, 8) != 0) {
    std::fprintf(stderr, "serve: listen: %s\n", std::strerror(errno));
    ::close(Listener);
    return 1;
  }
  if (!SocketPath.empty()) {
    std::fprintf(stderr, "serve: listening on %s\n", SocketPath.c_str());
  } else {
    // Report the bound port (--port 0 asks the kernel for one).
    sockaddr_in Bound{};
    socklen_t BoundLen = sizeof(Bound);
    ::getsockname(Listener, reinterpret_cast<sockaddr *>(&Bound),
                  &BoundLen);
    std::fprintf(stderr, "serve: listening on 127.0.0.1:%u\n",
                 ntohs(Bound.sin_port));
  }
  std::fflush(stderr);

  int MaxConns = Args.getInt("max-conns", 0);
  int Served = 0;
  int Code = 0;
  while (MaxConns <= 0 || Served < MaxConns) {
    int Conn = ::accept(Listener, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "serve: accept: %s\n", std::strerror(errno));
      Code = 1;
      break;
    }
    std::FILE *In = ::fdopen(Conn, "r");
    std::FILE *Out = In ? ::fdopen(::dup(Conn), "w") : nullptr;
    if (!In || !Out) {
      std::fprintf(stderr, "serve: fdopen failed for connection\n");
      if (In)
        std::fclose(In);
      else
        ::close(Conn);
      ++Served;
      continue;
    }
    serveStream(Service, In, Out);
    std::fclose(Out);
    std::fclose(In);
    ++Served;
  }
  ::close(Listener);
  if (!SocketPath.empty())
    ::unlink(SocketPath.c_str());
  return Code;
}

int cmdServe(const ArgList &Args) {
  service::ServeConfig Config;
  Config.NumThreads = Args.getInt("threads", 0);
  Config.MaxBatch = std::max(1, Args.getInt("batch", 8));
  Config.MaxQueueDepth =
      static_cast<size_t>(std::max(1, Args.getInt("queue", 64)));
  Config.DefaultTimeoutS = Args.getDouble("timeout-s", 30.0);
  Config.TransientDtS = Args.getDouble("dt-s", 2.0);
  if (Args.has("water"))
    Config.WaterSetpointC = Args.getDouble("water", 18.0);
  if (Args.has("ambient"))
    Config.AmbientSetpointC = Args.getDouble("ambient", 25.0);
  service::ScenarioService Service(Config);

  int Code;
  if (Args.has("port") || Args.has("socket")) {
    Code = serveSocket(Service, Args);
  } else {
    std::FILE *In = stdin;
    std::string InPath = Args.getString("in", "");
    if (!InPath.empty()) {
      In = std::fopen(InPath.c_str(), "r");
      if (!In) {
        std::fprintf(stderr, "serve: cannot open '%s'\n", InPath.c_str());
        return 2;
      }
    }
    std::FILE *Out = stdout;
    std::string OutPath = Args.getString("out", "");
    if (!OutPath.empty()) {
      Out = std::fopen(OutPath.c_str(), "w");
      if (!Out) {
        std::fprintf(stderr, "serve: cannot open '%s'\n", OutPath.c_str());
        if (In != stdin)
          std::fclose(In);
        return 2;
      }
    }
    Code = serveStream(Service, In, Out);
    if (In != stdin)
      std::fclose(In);
    if (Out != stdout)
      std::fclose(Out);
  }

  service::ServiceSummary Totals = Service.summary();
  std::fprintf(stderr,
               "serve: %llu requests (%llu ok, %llu errors, %llu rejected, "
               "%llu timed out)\n",
               static_cast<unsigned long long>(Totals.Requests),
               static_cast<unsigned long long>(Totals.OkCount),
               static_cast<unsigned long long>(Totals.ErrorCount),
               static_cast<unsigned long long>(Totals.Rejected),
               static_cast<unsigned long long>(Totals.TimedOut));
  std::string PromPath = Args.getString("prom", "");
  if (!PromPath.empty()) {
    Status Written = monitor::writePrometheusFile(
        telemetry::Registry::global(), PromPath);
    if (!Written.isOk()) {
      std::fprintf(stderr, "prom: %s\n", Written.message().c_str());
      return 1;
    }
    std::fprintf(stderr, "serve: Prometheus exposition written to %s\n",
                 PromPath.c_str());
  }
  return Code;
}

void printUsage() {
  std::fprintf(
      stderr,
      "skatsim - immersion-cooled RCS simulator\n"
      "usage:\n"
      "  skatsim list\n"
      "  skatsim solve <design>|--config FILE [--ambient C] [--water C]"
      " [--water-lpm L] [--util U] [--clock F]\n"
      "  skatsim rack [--ambient C] [--isolate N] [--skat-plus]\n"
      "  skatsim fleet [--racks N] [--modules M] [--minutes T] [--dt-s S]\n"
      "                [--water C] [--excursion-c C] [--dense]\n"
      "  skatsim transient <design> [--hours H] [--pump-fail-h T]"
      " [--csv FILE]\n"
      "  skatsim monitor <design>|--rack [--hours H] [--pump-fail-h T]\n"
      "                  [--pump-repair-h T] [--water-fail-h T]"
      " [--chiller-fail-h T]\n"
      "                  [--chiller-repair-h T]\n"
      "                  [--flight FILE] [--flight-frames N]"
      " [--flight-tail N]\n"
      "                  [--prom FILE] [--snapshots FILE]"
      " [--snapshot-period S] [--ack]\n"
      "  skatsim setpoint <design> [--limit C]\n"
      "  skatsim faults run <scenario.json> [--events FILE]"
      " [--replicate N]\n"
      "  skatsim faults sweep <scenario.json> [--replicates N]"
      " [--threads N]\n"
      "                 [--no-bench] [--progress FILE]"
      " [--progress-period S]\n"
      "                 (both: [--seed N] [--hours H])\n"
      "  skatsim serve [--in FILE] [--out FILE] [--port N |"
      " --socket PATH]\n"
      "                [--max-conns N] [--threads N] [--batch N]"
      " [--queue N]\n"
      "                [--timeout-s S] [--dt-s S]\n"
      "                [--water C] [--ambient C] [--prom FILE]\n"
      "  skatsim profile <command> [args...] [--profile-out FILE]\n"
      "  skatsim audit <command> [args...] [--audit-out FILE]"
      " [--audit-trace FILE]\n"
      "                [--audit-energy-warn F] [--audit-energy-critical F]\n"
      "                [--audit-coupling-warn F]"
      " [--audit-coupling-critical F]\n"
      "every command also accepts:\n"
      "  --trace FILE    structured event trace (.otlp.jsonl = OTLP-style\n"
      "                  spans, .jsonl = JSON Lines, otherwise Chrome\n"
      "                  trace_event JSON for Perfetto)\n"
      "  --metrics FILE  counter/timer snapshot written at exit\n");
}

int runCommand(const std::string &Command, const ArgList &Args) {
  if (Command == "list")
    return cmdList();
  if (Command == "solve")
    return cmdSolve(Args);
  if (Command == "rack")
    return cmdRack(Args);
  if (Command == "fleet")
    return cmdFleet(Args);
  if (Command == "transient")
    return cmdTransient(Args);
  if (Command == "monitor")
    return cmdMonitor(Args);
  if (Command == "setpoint")
    return cmdSetpoint(Args);
  if (Command == "faults")
    return cmdFaults(Args);
  if (Command == "serve")
    return cmdServe(Args);
  printUsage();
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    printUsage();
    return 2;
  }
  std::string Command = Argv[1];
  // `skatsim profile <command> ...` wraps the inner command with the
  // span-aggregating profiler; everything else about the command line is
  // interpreted exactly as the inner command would.
  bool ProfileMode = Command == "profile";
  int ArgStart = 2;
  if (ProfileMode) {
    if (Argc < 3 || startsWith(Argv[2], "--")) {
      std::fprintf(stderr, "usage: skatsim profile <command> [args...]"
                           " [--profile-out FILE]\n");
      return 2;
    }
    Command = Argv[2];
    ArgStart = 3;
  }
  // `skatsim audit <command> ...` runs the inner command with the physics
  // auditor armed (audit/Audit.h): conservation and convergence drift are
  // checked against budgets, the closure table is printed, and
  // AUDIT_<command>.json is written. A blown critical budget fails the
  // process.
  if (Command == "audit") {
    if (ArgStart >= Argc || startsWith(Argv[ArgStart], "--")) {
      std::fprintf(stderr,
                   "usage: skatsim audit <command> [args...]"
                   " [--audit-out FILE] [--audit-trace FILE]\n");
      return 2;
    }
    AuditMode = true;
    Command = Argv[ArgStart];
    ++ArgStart;
  }
  ArgList Args(Argc, Argv, ArgStart);
  if (AuditMode) {
    AuditBudgets.EnergyFractionWarn = units::Scalar(Args.getDouble(
        "audit-energy-warn", AuditBudgets.EnergyFractionWarn.value()));
    AuditBudgets.EnergyFractionCritical = units::Scalar(Args.getDouble(
        "audit-energy-critical",
        AuditBudgets.EnergyFractionCritical.value()));
    AuditBudgets.EnergyNodeFractionWarn = AuditBudgets.EnergyFractionWarn;
    AuditBudgets.EnergyNodeFractionCritical =
        AuditBudgets.EnergyFractionCritical;
    AuditBudgets.CouplingFractionWarn = units::Scalar(Args.getDouble(
        "audit-coupling-warn", AuditBudgets.CouplingFractionWarn.value()));
    AuditBudgets.CouplingFractionCritical = units::Scalar(Args.getDouble(
        "audit-coupling-critical",
        AuditBudgets.CouplingFractionCritical.value()));
  }

  telemetry::Registry &Telemetry = telemetry::Registry::global();
  if (Args.has("trace") && Args.getString("trace", "").empty()) {
    std::fprintf(stderr, "trace: --trace requires a file path\n");
    return 2;
  }
  if (Args.has("metrics") && Args.getString("metrics", "").empty()) {
    std::fprintf(stderr, "metrics: --metrics requires a file path\n");
    return 2;
  }
  std::string TracePath = Args.getString("trace", "");
  std::unique_ptr<telemetry::EventSink> TraceSink;
  if (!TracePath.empty()) {
    Expected<std::unique_ptr<telemetry::EventSink>> Sink =
        endsWith(TracePath, ".otlp.jsonl")
            ? telemetry::makeOtlpSpanSink(TracePath)
        : endsWith(TracePath, ".jsonl")
            ? telemetry::makeJsonlSink(TracePath)
            : telemetry::makeChromeTraceSink(TracePath);
    if (!Sink) {
      std::fprintf(stderr, "trace: %s\n", Sink.message().c_str());
      return 2;
    }
    TraceSink = std::move(*Sink);
  }
  telemetry::Profiler *Profiler = nullptr;
  if (ProfileMode) {
    auto Prof = std::make_unique<telemetry::Profiler>();
    Profiler = Prof.get();
    TraceSink = TraceSink ? telemetry::makeTeeSink(std::move(Prof),
                                                   std::move(TraceSink))
                          : std::move(Prof);
  }
  if (TraceSink)
    Telemetry.setSink(std::move(TraceSink));

  int ExitCode = runCommand(Command, Args);

  if (Profiler) {
    telemetry::ProfileReport Report = Profiler->report();
    std::printf("\n%s", telemetry::renderProfileText(Report, Command).c_str());
    std::string ProfilePath =
        Args.getString("profile-out", "PROFILE_" + Command + ".json");
    Status Written =
        telemetry::writeProfileFile(Report, Command, ProfilePath);
    if (!Written.isOk()) {
      std::fprintf(stderr, "profile: %s\n", Written.message().c_str());
      if (ExitCode == 0)
        ExitCode = 1;
    } else {
      std::printf("profile written to %s\n", ProfilePath.c_str());
    }
  }

  Status Closed = Telemetry.closeSink();
  if (!Closed.isOk()) {
    std::fprintf(stderr, "trace: %s\n", Closed.message().c_str());
    if (ExitCode == 0)
      ExitCode = 1;
  }
  std::string MetricsPath = Args.getString("metrics", "");
  if (!MetricsPath.empty()) {
    Status Written = Telemetry.writeMetricsFile(MetricsPath);
    if (!Written.isOk()) {
      std::fprintf(stderr, "metrics: %s\n", Written.message().c_str());
      if (ExitCode == 0)
        ExitCode = 1;
    }
  }
  return ExitCode;
}
