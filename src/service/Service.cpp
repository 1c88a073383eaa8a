//===- service/Service.cpp - Batched scenario-evaluation service --------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "core/Designs.h"
#include "faults/Engine.h"
#include "faults/Scenario.h"
#include "sim/Transient.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"
#include "support/Units.h"
#include "system/Cooling.h"
#include "system/Module.h"
#include "system/Monitoring.h"
#include "telemetry/Json.h"
#include "telemetry/Span.h"
#include "telemetry/Telemetry.h"

#include <algorithm>

using namespace rcs;
using namespace rcs::service;

namespace {

ServiceResponse errorResponse(const std::string &Id, ErrorKind Kind,
                              std::string Message) {
  ServiceResponse Response;
  Response.Id = Id;
  Response.Ok = false;
  Response.Error = Kind;
  Response.ErrorMessage = std::move(Message);
  return Response;
}

/// Result payloads mirror the one-shot CLI reports; every double renders
/// at %.17g so equality against a direct evaluation is bit-exact.
std::string renderSteadyResult(const rcsystem::ModuleThermalReport &Report) {
  std::string Json = "{";
  Json += "\"max_junction_c\": " + renderExactNumber(Report.MaxJunctionTempC);
  Json += ", \"mean_junction_c\": " +
          renderExactNumber(Report.MeanJunctionTempC);
  Json += ", \"coolant_hot_c\": " + renderExactNumber(Report.CoolantHotTempC);
  Json +=
      ", \"coolant_cold_c\": " + renderExactNumber(Report.CoolantColdTempC);
  Json += ", \"it_power_w\": " + renderExactNumber(Report.ItPowerW);
  Json += ", \"total_heat_w\": " + renderExactNumber(Report.TotalHeatW);
  Json += ", \"coolant_flow_m3_per_s\": " +
          renderExactNumber(Report.CoolantFlowM3PerS);
  Json += ", \"per_fpga_power_w\": " +
          renderExactNumber(Report.Fpgas.empty() ? 0.0
                                                 : Report.Fpgas.front().PowerW);
  Json += formatString(", \"within_reliable_limit\": %s",
                       Report.WithinReliableLimit ? "true" : "false");
  Json += formatString(", \"warnings\": %zu", Report.Warnings.size());
  Json += "}";
  return Json;
}

std::string
renderTransientResult(const std::vector<sim::TraceSample> &Trace) {
  const sim::TraceSample &Last = Trace.back();
  std::string Json = "{";
  Json += "\"end_time_s\": " + renderExactNumber(Last.TimeS);
  Json += ", \"max_junction_c\": " + renderExactNumber(Last.MaxJunctionTempC);
  Json += ", \"oil_c\": " + renderExactNumber(Last.OilTempC);
  Json += ", \"power_w\": " + renderExactNumber(Last.TotalPowerW);
  Json += ", \"pump_speed\": " + renderExactNumber(Last.PumpSpeedFraction);
  Json += ", \"clock_fraction\": " + renderExactNumber(Last.ClockFraction);
  Json += formatString(", \"alarm\": \"%s\"",
                       rcsystem::alarmLevelName(Last.Alarm));
  Json += formatString(", \"shut_down\": %s",
                       Last.ShutDown ? "true" : "false");
  Json += formatString(", \"samples\": %zu", Trace.size());
  Json += "}";
  return Json;
}

std::string renderFaultsResult(const faults::ScenarioOutcome &Outcome) {
  std::string Json = "{";
  Json += "\"name\": " + telemetry::jsonQuote(Outcome.Name);
  Json +=
      ", \"availability\": " + renderExactNumber(Outcome.AvailabilityFraction);
  Json += ", \"throughput_retained\": " +
          renderExactNumber(Outcome.ThroughputRetainedFraction);
  Json += ", \"max_junction_c\": " + renderExactNumber(Outcome.MaxJunctionC);
  Json +=
      ", \"final_junction_c\": " + renderExactNumber(Outcome.FinalJunctionC);
  Json += ", \"time_to_first_critical_s\": " +
          renderExactNumber(Outcome.TimeToFirstCriticalS);
  Json += formatString(", \"faults_injected\": %d", Outcome.FaultsInjected);
  Json += formatString(", \"faults_cleared\": %d", Outcome.FaultsCleared);
  Json += formatString(", \"actions\": %d", Outcome.ActionsTaken);
  Json +=
      formatString(", \"modules_shut_down\": %d", Outcome.ModulesShutDown);
  Json += formatString(", \"safe_degraded_end\": %s",
                       Outcome.SafeDegradedEnd ? "true" : "false");
  Json += formatString(", \"audit_within_budget\": %s",
                       Outcome.AuditWithinBudget ? "true" : "false");
  Json += formatString(", \"events\": %zu", Outcome.Events.size());
  Json += "}";
  return Json;
}

} // namespace

ScenarioService::ScenarioService(ServeConfig ConfigIn) : Config(ConfigIn) {}

std::optional<std::string> ScenarioService::submit(std::string_view Line) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::Counter &Requests = Reg.counter("service.requests");
  static telemetry::Counter &RejectedFull =
      Reg.counter("service.rejected.queue_full");
  static telemetry::Gauge &Depth = Reg.gauge("service.queue.depth");
  Requests.add();

  Expected<ServiceRequest> Request = parseServiceRequest(Line);
  if (!Request) {
    // Answer under the line's own id when it has a string one; otherwise
    // the empty id plus in-order rendering still attributes the error.
    ServiceResponse Response = errorResponse(
        parseRequestId(Line), ErrorKind::Parse, Request.message());
    LockGuard Lock(Mu);
    ++Totals.Requests;
    ++Totals.ErrorCount;
    return renderServiceResponse(Response);
  }

  Pending Item;
  Item.EnqueueS = Reg.nowSeconds();
  Item.TimeoutS = Request->TimeoutS.value_or(Config.DefaultTimeoutS);
  Item.Request = std::move(*Request);

  size_t DepthNow = 0;
  std::optional<std::string> Rejection;
  {
    LockGuard Lock(Mu);
    ++Totals.Requests;
    if (Queue.size() >= Config.MaxQueueDepth) {
      ++Totals.Rejected;
      ++Totals.ErrorCount;
      Rejection = renderServiceResponse(errorResponse(
          Item.Request.Id, ErrorKind::QueueFull,
          formatString("queue full (depth %zu)", Queue.size())));
    } else {
      Queue.push_back(std::move(Item));
    }
    DepthNow = Queue.size();
  }
  Depth.set(static_cast<double>(DepthNow));
  if (Rejection)
    RejectedFull.add();
  return Rejection;
}

size_t ScenarioService::drain(std::vector<std::string> &Out) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::Counter &Batches = Reg.counter("service.batches");
  static telemetry::Counter &OkCount = Reg.counter("service.responses.ok");
  static telemetry::Counter &ErrCount =
      Reg.counter("service.responses.error");
  static telemetry::Counter &Timeouts = Reg.counter("service.timeouts");
  static telemetry::Gauge &Depth = Reg.gauge("service.queue.depth");
  static telemetry::Histogram &BatchSize =
      Reg.histogram("service.batch.size");
  static telemetry::Histogram &QueueWait =
      Reg.histogram("service.queue.wait_s");
  static telemetry::Histogram &Latency =
      Reg.histogram("service.request.latency_s");

  std::vector<Pending> Batch;
  size_t DepthAfter = 0;
  {
    LockGuard Lock(Mu);
    size_t Take =
        std::min<size_t>(static_cast<size_t>(std::max(Config.MaxBatch, 1)),
                         Queue.size());
    Batch.reserve(Take);
    for (size_t I = 0; I != Take; ++I) {
      Batch.push_back(std::move(Queue.front()));
      Queue.pop_front();
    }
    DepthAfter = Queue.size();
  }
  Depth.set(static_cast<double>(DepthAfter));
  if (Batch.empty())
    return 0;
  Batches.add();
  BatchSize.record(static_cast<double>(Batch.size()));

  // Fan out onto the pool; each item writes its pre-sized slot so the
  // rendered stream keeps submission order (support/Parallel.h).
  const telemetry::SpanContext Parent = telemetry::currentSpanContext();
  std::vector<ServiceResponse> Responses(Batch.size());
  parallelFor(
      clampThreadCount(Config.NumThreads), Batch.size(), [&](size_t I) {
        telemetry::ScopedSpanParent Adopt(Parent);
        static telemetry::Timer &RequestTimer = Reg.timer("service.request");
        telemetry::Span RequestSpan(RequestTimer);
        const Pending &Item = Batch[I];
        RequestSpan.attr("id", Item.Request.Id);
        RequestSpan.attr("type", requestKindName(Item.Request.Kind));
        double WaitS = Reg.nowSeconds() - Item.EnqueueS;
        QueueWait.record(WaitS);
        if (WaitS >= Item.TimeoutS)
          Responses[I] = errorResponse(
              Item.Request.Id, ErrorKind::Timeout,
              formatString("deadline expired after %.3f s in queue "
                           "(timeout %.3f s)",
                           WaitS, Item.TimeoutS));
        else
          Responses[I] = evaluate(Item.Request);
        Responses[I].LatencyS = Reg.nowSeconds() - Item.EnqueueS;
      });

  uint64_t Ok = 0, Errors = 0, TimedOut = 0;
  for (const ServiceResponse &Response : Responses) {
    Out.push_back(renderServiceResponse(Response));
    Latency.record(Response.LatencyS);
    if (Response.Ok)
      ++Ok;
    else
      ++Errors;
    if (Response.Error == ErrorKind::Timeout)
      ++TimedOut;
  }
  OkCount.add(static_cast<int64_t>(Ok));
  ErrCount.add(static_cast<int64_t>(Errors));
  Timeouts.add(static_cast<int64_t>(TimedOut));
  {
    LockGuard Lock(Mu);
    Totals.OkCount += Ok;
    Totals.ErrorCount += Errors;
    Totals.TimedOut += TimedOut;
  }
  return Batch.size();
}

bool ScenarioService::idle() const {
  LockGuard Lock(Mu);
  return Queue.empty();
}

ServiceSummary ScenarioService::summary() const {
  LockGuard Lock(Mu);
  return Totals;
}

ServiceResponse ScenarioService::evaluate(const ServiceRequest &Request) {
  switch (Request.Kind) {
  case RequestKind::Steady:
    return evaluateSteady(Request);
  case RequestKind::Transient:
    return evaluateTransient(Request);
  case RequestKind::Faults:
    return evaluateFaults(Request);
  }
  return errorResponse(Request.Id, ErrorKind::Evaluation,
                       "unreachable request kind");
}

ServiceResponse
ScenarioService::evaluateSteady(const ServiceRequest &Request) {
  Expected<rcsystem::ModuleConfig> ModuleCfg =
      core::designModuleByName(Request.Design);
  if (!ModuleCfg)
    return errorResponse(Request.Id, ErrorKind::Evaluation,
                         ModuleCfg.message());

  // Same defaults as `skatsim solve`; the ServeConfig setpoints slot in
  // between the CLI defaults and per-request overrides.
  rcsystem::ExternalConditions Conditions = core::makeNominalConditions();
  Conditions.AmbientAirTempC =
      Request.AmbientC.value_or(Config.AmbientSetpointC.value_or(25.0));
  Conditions.WaterInletTempC =
      Request.WaterC.value_or(Config.WaterSetpointC.value_or(18.0));
  Conditions.WaterFlowM3PerS =
      units::litersPerMinuteToM3PerS(Request.WaterLpm.value_or(18.0));
  fpga::WorkloadPoint Load = ModuleCfg->Load;
  Load.Utilization = Request.Util.value_or(Load.Utilization);
  Load.ClockFraction = Request.Clock.value_or(Load.ClockFraction);

  rcsystem::ComputationalModule TheModule(*ModuleCfg);
  Expected<rcsystem::ModuleThermalReport> Report =
      TheModule.solveSteadyState(Conditions, Load);
  if (!Report)
    return errorResponse(Request.Id, ErrorKind::Evaluation, Report.message());
  ServiceResponse Response;
  Response.Id = Request.Id;
  Response.Ok = true;
  Response.ResultJson = renderSteadyResult(*Report);
  return Response;
}

ServiceResponse
ScenarioService::evaluateTransient(const ServiceRequest &Request) {
  Expected<rcsystem::ModuleConfig> ModuleCfg =
      core::designModuleByName(Request.Design);
  if (!ModuleCfg)
    return errorResponse(Request.Id, ErrorKind::Evaluation,
                         ModuleCfg.message());
  if (ModuleCfg->Cooling != rcsystem::CoolingKind::Immersion)
    return errorResponse(Request.Id, ErrorKind::Evaluation,
                         "the transient simulator models immersion designs");

  double Hours = Request.Hours.value_or(4.0);
  sim::TransientConfig SimCfg;
  SimCfg.TimeStepS = Request.DtS.value_or(Config.TransientDtS);
  rcsystem::ExternalConditions Conditions = core::makeNominalConditions();
  if (Request.AmbientC || Config.AmbientSetpointC)
    Conditions.AmbientAirTempC =
        Request.AmbientC.value_or(*Config.AmbientSetpointC);
  if (Request.WaterC || Config.WaterSetpointC)
    Conditions.WaterInletTempC =
        Request.WaterC.value_or(*Config.WaterSetpointC);

  sim::TransientSimulator Simulator(*ModuleCfg, Conditions, SimCfg);
  if (Request.PumpFailH)
    Simulator.schedulePumpSpeed(*Request.PumpFailH * 3600.0, 0.0);

  Expected<std::vector<sim::TraceSample>> Trace =
      Simulator.run(Hours * 3600.0);
  if (!Trace)
    return errorResponse(Request.Id, ErrorKind::Evaluation, Trace.message());
  ServiceResponse Response;
  Response.Id = Request.Id;
  Response.Ok = true;
  Response.ResultJson = renderTransientResult(*Trace);
  return Response;
}

ServiceResponse
ScenarioService::evaluateFaults(const ServiceRequest &Request) {
  Expected<faults::Scenario> Scenario =
      faults::loadScenarioFile(Request.ScenarioPath);
  if (!Scenario)
    return errorResponse(Request.Id, ErrorKind::Evaluation,
                         Scenario.message());
  if (Request.Seed)
    Scenario->Seed = *Request.Seed;
  if (Request.Hours)
    Scenario->DurationS = *Request.Hours * 3600.0;
  Expected<faults::ScenarioOutcome> Outcome =
      faults::runScenario(*Scenario, Request.Replicate.value_or(0));
  if (!Outcome)
    return errorResponse(Request.Id, ErrorKind::Evaluation,
                         Outcome.message());
  ServiceResponse Response;
  Response.Id = Request.Id;
  Response.Ok = true;
  Response.ResultJson = renderFaultsResult(*Outcome);
  return Response;
}
