//===- perfbench/src/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "Common.h"

#include <cstdio>
#include <utility>

using namespace perfbench;

namespace {

// Independent streams per input family, so adding draws to one family
// never moves another's inputs.
enum Stream : uint64_t {
  ModuleScenarioStream = 1,
  RackScenarioStream = 2,
  ServeScenarioStream = 3,
  ServeRequestStream = 100,
  DesignStream = 4,
  FleetStream = 1000,
};

std::string num(double Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  return Buf;
}

std::string pick(Rng &G, std::initializer_list<const char *> Options) {
  return *(Options.begin() + G.below(static_cast<int>(Options.size())));
}

/// A module-level campaign: one \p Plant fault, one sensor fault, and two
/// hazard processes whose MTTF is comparable to the horizon, so the
/// replicates' hazard draws differ.
std::string moduleScenario(Rng &G, const std::string &Name,
                           const std::string &Plant, double DurationH) {
  std::string Sensor = pick(G, {"sensor_drift", "sensor_spike"});
  std::string J = "{\"name\": \"" + Name + "\", \"level\": \"module\", "
                  "\"design\": \"skat\", \"duration_h\": " +
                  num(DurationH) + ", \"seed\": " +
                  std::to_string(G.next() % 100000) +
                  ", \"policy\": {\"enabled\": true, "
                  "\"critical_periods_to_shutdown\": 4}, \"faults\": [";
  J += "{\"kind\": \"" + Plant + "\", \"id\": \"plant\", \"at_h\": " +
       num(G.uniform(0.1, 0.6) * DurationH) +
       ", \"severity\": " + num(G.uniform(0.3, 0.8)) +
       ", \"ramp_s\": " + num(G.uniform(0.0, 600.0)) + "}, ";
  J += "{\"kind\": \"" + Sensor + "\", \"id\": \"sensor\", \"target\": " +
       std::to_string(G.below(2)) + ", \"at_h\": " +
       num(G.uniform(0.2, 0.7) * DurationH) + ", \"duration_h\": " +
       num(0.1 * DurationH) + ", \"severity\": " +
       num(G.uniform(0.05, 0.15)) + ", \"period_s\": 120}";
  J += "], \"hazards\": [";
  J += "{\"kind\": \"pump_failure\", \"id\": \"pump-hazard\", \"mttf_h\": " +
       num(G.uniform(1.5, 3.0) * DurationH) + ", \"weibull_shape\": " +
       num(G.uniform(1.0, 1.6)) + ", \"repair_h\": " +
       num(0.2 * DurationH) + "}, ";
  J += "{\"kind\": \"hx_fouling\", \"id\": \"fouling-hazard\", \"mttf_h\": " +
       num(G.uniform(2.0, 4.0) * DurationH) + ", \"severity\": " +
       num(G.uniform(0.3, 0.7)) + ", \"repair_h\": " +
       num(0.3 * DurationH) + "}";
  J += "]}";
  return J;
}

} // namespace

std::vector<std::string> perfbench::sweepModuleScenarios(uint64_t Seed) {
  // One scenario per plant-fault kind, so every seed runs the same mix of
  // failure modes and only their timing and severity move.
  Rng G(Seed, ModuleScenarioStream);
  std::vector<std::string> Out;
  for (const char *Plant : {"pump_degradation", "hx_fouling", "coolant_loss"})
    Out.push_back(
        moduleScenario(G, std::string("bench-module-") + Plant, Plant,
                       SweepModuleHorizonH));
  return Out;
}

std::string perfbench::sweepRackScenario(uint64_t Seed) {
  // Modelled on scenarios/rack_degradation.json (the same faults, policy
  // and hazard, with times, targets and severities drawn around it): it
  // drives the rack Critical, through staged shutdowns.
  Rng G(Seed, RackScenarioStream);
  const double DurationH = SweepRackHorizonH;
  std::string J = "{\"name\": \"bench-rack\", \"level\": \"rack\", "
                  "\"design\": \"skat\", \"duration_h\": " +
                  num(DurationH) + ", \"seed\": " +
                  std::to_string(G.next() % 100000) +
                  ", \"policy\": {\"enabled\": true, \"clock_floor\": 0.5, "
                  "\"shed_step\": 0.1, \"critical_periods_to_shutdown\": 4, "
                  "\"migrate_load\": true, \"utilization_bound\": 1.0}, "
                  "\"faults\": [";
  J += "{\"kind\": \"hx_fouling\", \"id\": \"fouling\", \"target\": " +
       std::to_string(G.below(12)) + ", \"at_h\": " +
       num(G.uniform(0.2, 0.5)) + ", \"severity\": " +
       num(G.uniform(0.75, 0.95)) + ", \"ramp_s\": 1800}, ";
  J += "{\"kind\": \"chiller_derate\", \"id\": \"chiller\", \"at_h\": " +
       num(G.uniform(0.5, 1.0)) + ", \"duration_h\": 1.5, \"severity\": " +
       num(G.uniform(0.4, 0.6)) + "}";
  J += "], \"hazards\": [";
  J += "{\"kind\": \"pump_failure\", \"id\": \"module-pump\", \"target\": " +
       std::to_string(G.below(12)) + ", \"mttf_h\": " +
       num(G.uniform(5.0, 15.0)) + ", \"weibull_shape\": " +
       num(G.uniform(1.2, 1.6)) + ", \"repair_h\": 2.0}";
  J += "]}";
  return J;
}

std::vector<std::string> perfbench::serveScenarios(uint64_t Seed) {
  // Modelled on scenarios/pump_failure_module.json (3 h, one pump wearing
  // to severity 0.8 from 1 h over a 300 s ramp), with the onset, severity
  // and ramp drawn around it.
  Rng G(Seed, ServeScenarioStream);
  std::vector<std::string> Out;
  for (int I = 0; I != ServeScenarios; ++I)
    Out.push_back("{\"name\": \"serve-pump-" + std::to_string(I) +
                  "\", \"level\": \"module\", \"design\": \"skat\", "
                  "\"duration_h\": 3, \"seed\": " +
                  std::to_string(G.next() % 100000) +
                  ", \"policy\": {\"enabled\": true, "
                  "\"critical_periods_to_shutdown\": 4}, \"faults\": ["
                  "{\"kind\": \"pump_degradation\", \"id\": \"pump0-wear\", "
                  "\"at_h\": " +
                  num(G.uniform(0.5, 1.5)) +
                  ", \"severity\": " + num(G.uniform(0.6, 0.9)) +
                  ", \"ramp_s\": " + num(G.uniform(120.0, 600.0)) + "}]}");
  return Out;
}

ServePhase perfbench::servePhase(uint64_t Seed, int Phase,
                                 const std::string &Name, double RatePerS,
                                 int Count,
                                 const std::vector<std::string> &Paths) {
  Rng G(Seed, ServeRequestStream + static_cast<uint64_t>(Phase));
  ServePhase Out;
  Out.Name = Name;
  Out.RatePerS = RatePerS;
  double DueS = 0.0;
  int Order[ServeBlock];
  for (int I = 0; I != Count; ++I) {
    if (I % ServeBlock == 0) {
      // A seeded order of the corpus's six requests for the next block.
      for (int K = 0; K != ServeBlock; ++K)
        Order[K] = K;
      for (int K = ServeBlock - 1; K > 0; --K)
        std::swap(Order[K], Order[G.below(K + 1)]);
    }
    DueS += G.exponential(RatePerS);
    ServeRequest Req;
    Req.DueS = DueS;
    std::string Id = std::to_string(Phase);
    Id.insert(Id.begin(), 'p');
    Id += '-';
    Id += std::to_string(I);
    // A fresh key gets a time step no other request in the run uses, so it
    // misses the cache; the step is 2 s to within 2 ms.
    char FreshDt[32];
    std::snprintf(FreshDt, sizeof(FreshDt), "%.17g",
                  ServeTransientDtS + 1e-9 * (1 + Phase * 100000 + I));
    const std::string Transient =
        "\"type\": \"transient\", \"hours\": " + num(ServeTransientHours) +
        ", ";
    std::string J = "{\"kind\": \"service_request\", \"id\": \"" + Id + "\", ";
    switch (Order[I % ServeBlock]) {
    case 0: // steady-nominal
      Req.Kind = RequestKind::Steady;
      J += "\"type\": \"steady\", \"design\": \"skat\"}";
      break;
    case 1: // steady-warm-water
      Req.Kind = RequestKind::Steady;
      J += "\"type\": \"steady\", \"design\": \"skat\", \"water_c\": " +
           num(G.uniform(18.0, 24.0)) +
           ", \"util\": " + num(G.uniform(0.7, 1.0)) + "}";
      break;
    case 2: // transient-cold: first use of its key.
      Req.Kind = RequestKind::Transient;
      J += Transient + "\"design\": \"skat\", \"dt_s\": " + FreshDt + "}";
      break;
    case 3: // transient-warm: repeats the hot key.
      Req.Kind = RequestKind::Transient;
      J += Transient + "\"design\": \"skat\", \"dt_s\": " +
           num(ServeTransientDtS) + "}";
      break;
    case 4: // transient-pump-fail: first use of its key.
      Req.Kind = RequestKind::Transient;
      J += Transient + "\"design\": \"skat-plus\", \"dt_s\": " + FreshDt +
           ", \"pump_fail_h\": " + num(G.uniform(0.1, 0.4)) +
           ", \"timeout_s\": 120}";
      break;
    default: // faults-pump: the whole scenario.
      Req.Kind = RequestKind::Faults;
      J += "\"type\": \"faults\", \"scenario\": \"" +
           Paths[static_cast<size_t>(G.below(static_cast<int>(Paths.size())))] +
           "\"}";
      break;
    }
    Req.Line = std::move(J);
    Out.Requests.push_back(std::move(Req));
  }
  return Out;
}

rcs::thermal::FleetConfig perfbench::fleetConfig() {
  rcs::thermal::FleetConfig Config;
  Config.NumRacks = FleetRacks;
  Config.ModulesPerRack = FleetModulesPerRack;
  return Config;
}

FleetEdit perfbench::fleetEdit(uint64_t Seed, uint64_t Step) {
  Rng G(Seed, FleetStream + Step);
  FleetEdit E;
  for (int I = 0; I != FleetRacksPerStep; ++I)
    E.Utilization.emplace_back(
        static_cast<size_t>(G.below(static_cast<int>(FleetRacks))),
        G.uniform(0.4, 1.0));
  if (Step % FleetTrimEvery == FleetTrimEvery - 1) {
    E.TrimRack = G.below(static_cast<int>(FleetRacks));
    E.TrimFactor = G.uniform(0.7, 1.3);
  }
  E.Steady = Step % FleetSteadyEvery == FleetSteadyEvery - 1;
  return E;
}

const char *perfbench::designKindName(DesignKind Kind) {
  switch (Kind) {
  case DesignKind::RackSolve:
    return "rack_solve";
  case DesignKind::TrimDirect:
    return "trim_direct";
  case DesignKind::TrimReverse:
    return "trim_reverse";
  case DesignKind::InternalLoop:
    return "internal_loop";
  case DesignKind::ModuleSolve:
    return "module_solve";
  case DesignKind::Tolerances:
    return "tolerances";
  }
  return "?";
}

std::vector<DesignPoint> perfbench::designPoints(uint64_t Seed) {
  static const DesignKind Cycle[] = {
      DesignKind::RackSolve,    DesignKind::TrimDirect,
      DesignKind::TrimReverse,  DesignKind::InternalLoop,
      DesignKind::InternalLoop, DesignKind::ModuleSolve,
      DesignKind::ModuleSolve,  DesignKind::Tolerances};
  Rng G(Seed, DesignStream);
  std::vector<DesignPoint> Points;
  for (int I = 0; I != DesignPoints; ++I) {
    DesignPoint P;
    P.Kind = Cycle[I % 8];
    P.Variant = G.below(2);
    switch (P.Kind) {
    case DesignKind::RackSolve:
      P.TempC = G.uniform(15.0, 35.0);
      P.Extra = G.uniform() < 0.25 ? G.below(12) : -1;
      break;
    case DesignKind::TrimDirect:
      // A harsh direct-return riser, the E7 valve-trim alternative.
      P.TempC = G.uniform(14.0, 22.0);
      P.A = G.uniform(0.9, 1.4);
      P.B = G.uniform(0.030, 0.034);
      break;
    case DesignKind::TrimReverse:
      P.TempC = G.uniform(14.0, 22.0);
      P.A = G.uniform(0.3, 0.5);
      P.B = G.uniform(0.045, 0.055);
      break;
    case DesignKind::InternalLoop:
      P.TempC = G.uniform(20.0, 45.0);
      break;
    case DesignKind::ModuleSolve:
      P.TempC = G.uniform(14.0, 24.0);
      P.A = G.uniform(0.5, 1.0);
      break;
    case DesignKind::Tolerances:
      P.Extra = static_cast<long>(G.next() % 1000000);
      break;
    }
    Points.push_back(P);
  }
  return Points;
}

std::string perfbench::renderPhase(const ServePhase &Phase) {
  std::string Out = Phase.Name + " " + num(Phase.RatePerS) + "\n";
  char Buf[40];
  for (const ServeRequest &Req : Phase.Requests) {
    std::snprintf(Buf, sizeof(Buf), "%.17g ", Req.DueS);
    Out += Buf + Req.Line + "\n";
  }
  return Out;
}

std::string perfbench::renderFleetEdits(uint64_t Seed, uint64_t Steps) {
  std::string Out;
  char Buf[64];
  for (uint64_t S = 0; S != Steps; ++S) {
    FleetEdit E = fleetEdit(Seed, S);
    for (const auto &[Rack, Util] : E.Utilization) {
      std::snprintf(Buf, sizeof(Buf), "%zu:%.17g ", Rack, Util);
      Out += Buf;
    }
    std::snprintf(Buf, sizeof(Buf), "trim %ld %.17g steady %d\n", E.TrimRack,
                  E.TrimFactor, E.Steady ? 1 : 0);
    Out += Buf;
  }
  return Out;
}

std::string perfbench::renderDesignPoints(const std::vector<DesignPoint> &Ps) {
  std::string Out;
  char Buf[160];
  for (const DesignPoint &P : Ps) {
    std::snprintf(Buf, sizeof(Buf), "%s %d %.17g %.17g %.17g %ld\n",
                  designKindName(P.Kind), P.Variant, P.TempC, P.A, P.B,
                  P.Extra);
    Out += Buf;
  }
  return Out;
}
