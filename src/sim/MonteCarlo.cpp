//===- sim/MonteCarlo.cpp - Availability simulation -----------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/MonteCarlo.h"

#include "fpga/Reliability.h"
#include "support/Parallel.h"
#include "support/Random.h"

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace rcs;
using namespace rcs::sim;

AvailabilityReport
rcs::sim::simulateAvailability(const AvailabilityConfig &Config) {
  assert(Config.NumTrials > 0 && Config.HorizonYears > 0 &&
         "invalid Monte-Carlo configuration");
  const double HoursPerYear = 8766.0;
  const double Horizon = Config.HorizonYears * HoursPerYear;

  telemetry::Registry &Telemetry = telemetry::Registry::global();
  static telemetry::Counter &TrialCount =
      Telemetry.counter("sim.montecarlo.trials");
  static telemetry::Counter &FailureCount =
      Telemetry.counter("sim.montecarlo.failures");
  static telemetry::Timer &RunTimer = Telemetry.timer("sim.montecarlo.run");
  telemetry::ScopedTimer Timer(RunTimer);

  AvailabilityReport Report;
  Report.PerComponentFailuresPerYear.assign(Config.Components.size(), 0.0);

  // Each trial draws from its own (Seed, Trial) stream and writes into its
  // own slot; the reduction below walks slots in trial order. Both facts
  // together make the report bit-identical at any thread count.
  struct TrialResult {
    uint64_t Failures = 0;
    double DowntimeHours = 0.0;
    std::vector<double> PerComponentFailures;
  };
  std::vector<TrialResult> Results(
      static_cast<size_t>(Config.NumTrials));

  parallelFor(
      Config.NumThreads, static_cast<size_t>(Config.NumTrials),
      [&](size_t Trial) {
        RandomEngine Rng(Config.Seed, Trial);
        TrialResult &Result = Results[Trial];
        Result.PerComponentFailures.assign(Config.Components.size(), 0.0);
        for (size_t C = 0; C != Config.Components.size(); ++C) {
          const ComponentSpec &Component = Config.Components[C];
          double Rate = 1.0 / Component.MtbfHours; // Failures per hour.
          for (int Instance = 0; Instance != Component.Count; ++Instance) {
            // Renewal process: failure, repair, back to service.
            double Clock = Rng.exponential(Rate);
            while (Clock < Horizon) {
              ++Result.Failures;
              Result.PerComponentFailures[C] += 1.0;
              if (Component.TakesDownModule)
                Result.DowntimeHours += Component.RepairHours;
              Clock += Component.RepairHours + Rng.exponential(Rate);
            }
          }
        }
        // Telemetry counters are thread-safe; the trace event carries the
        // trial id so interleaved emission stays attributable.
        TrialCount.add();
        FailureCount.add(Result.Failures);
        if (Telemetry.tracingEnabled())
          Telemetry.emitEvent(
              "sim.montecarlo.trial",
              {{"trial", static_cast<long long>(Trial)},
               {"failures", static_cast<long long>(Result.Failures)},
               {"downtime_h", Result.DowntimeHours}});
      });

  double TotalFailures = 0.0;
  double TotalDowntime = 0.0;
  for (const TrialResult &Result : Results) {
    TotalFailures += static_cast<double>(Result.Failures);
    TotalDowntime += Result.DowntimeHours;
    for (size_t C = 0; C != Result.PerComponentFailures.size(); ++C)
      Report.PerComponentFailuresPerYear[C] += Result.PerComponentFailures[C];
  }

  double TrialYears = Config.NumTrials * Config.HorizonYears;
  Report.FailuresPerYear = TotalFailures / TrialYears;
  Report.ModuleDowntimeHoursPerYear = TotalDowntime / TrialYears;
  Report.Availability =
      1.0 - Report.ModuleDowntimeHoursPerYear / HoursPerYear;
  for (double &PerYear : Report.PerComponentFailuresPerYear)
    PerYear /= TrialYears;
  return Report;
}

std::vector<ComponentSpec>
rcs::sim::makeImmersionComponents(int NumFpgas, double JunctionTempC,
                                  int NumPumps, bool WashoutProneGrease) {
  std::vector<ComponentSpec> Components;
  Components.push_back(
      {"FPGA (wear-out)", NumFpgas, fpga::mttfHours(JunctionTempC), 6.0,
       true});
  Components.push_back({"oil pump", NumPumps, 45000.0, 8.0, true});
  Components.push_back({"immersion PSU", 3, 180000.0, 4.0, false});
  // The paper's wash-out problem: grease-based interfaces degrade in oil
  // and force a maintenance stoppage to re-coat (roughly yearly).
  if (WashoutProneGrease)
    Components.push_back({"TIM re-coating (wash-out)", 1, 8000.0, 24.0,
                          true});
  return Components;
}

std::vector<ComponentSpec>
rcs::sim::makeColdPlateComponents(int NumFpgas, double JunctionTempC,
                                  int NumConnections) {
  std::vector<ComponentSpec> Components;
  Components.push_back(
      {"FPGA (wear-out)", NumFpgas, fpga::mttfHours(JunctionTempC), 6.0,
       true});
  Components.push_back({"water pump", 2, 45000.0, 8.0, true});
  Components.push_back({"air PSU", 3, 150000.0, 4.0, false});
  // Pressure-tight quick connectors: individually reliable, but the
  // design multiplies them (one per plate, Section 2), and a leak over
  // live electronics is a long outage.
  Components.push_back(
      {"liquid connector leak", NumConnections, 9.0e5, 48.0, true});
  // Dew-point condensation events when facility humidity control slips.
  Components.push_back({"condensation event", 1, 2.5e5, 24.0, true});
  return Components;
}

std::vector<ComponentSpec> rcs::sim::makeAirComponents(int NumFpgas,
                                                       double JunctionTempC,
                                                       int NumFans) {
  std::vector<ComponentSpec> Components;
  Components.push_back(
      {"FPGA (wear-out)", NumFpgas, fpga::mttfHours(JunctionTempC), 6.0,
       true});
  // Redundant fan trays: single failures are hot-swapped.
  Components.push_back({"fan", NumFans, 60000.0, 1.0, false});
  Components.push_back({"air PSU", 3, 150000.0, 4.0, false});
  return Components;
}
