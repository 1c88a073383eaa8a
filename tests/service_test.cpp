//===- tests/service_test.cpp - Scenario-service tests ------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the `skatsim serve` scenario service: strict protocol
/// parsing, results bit-identical to the direct one-shot API, backpressure
/// and timeout error paths, and a concurrent batch that the TSan CI leg
/// runs to certify the lock discipline.
///
//===----------------------------------------------------------------------===//

#include "core/Designs.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "sim/Transient.h"
#include "support/Units.h"
#include "system/Module.h"
#include "telemetry/Json.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace rcs;
using namespace rcs::service;

namespace {

/// Submits every line, drains until dry, and returns the response lines
/// (submission order). Immediate responses (parse error, queue full)
/// land in-order too because submission here is sequential.
std::vector<std::string>
runAll(ScenarioService &Service, const std::vector<std::string> &Lines) {
  std::vector<std::string> Out;
  for (const std::string &Line : Lines)
    if (auto Immediate = Service.submit(Line))
      Out.push_back(*Immediate);
  while (Service.drain(Out))
    ;
  return Out;
}

/// The rendered result payload of a response line (from `"result": ` to
/// the line's end); empty for error responses.
std::string resultPayload(const std::string &Response) {
  size_t Pos = Response.find("\"result\": ");
  return Pos == std::string::npos ? std::string() : Response.substr(Pos);
}

/// Parses a response line and returns result.<Key> as a double.
double resultNumber(const std::string &Response, const std::string &Key) {
  Expected<telemetry::JsonValue> Doc = telemetry::parseJson(Response);
  if (!Doc)
    return -1.0e300;
  const telemetry::JsonValue *Result = Doc->find("result");
  if (!Result)
    return -1.0e300;
  const telemetry::JsonValue *Value = Result->find(Key);
  return Value && Value->isNumber() ? Value->NumberValue : -1.0e300;
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ServiceProtocolTest, ParsesFullTransientRequest) {
  Expected<ServiceRequest> Request = parseServiceRequest(
      "{\"kind\": \"service_request\", \"id\": \"r1\", \"type\": "
      "\"transient\", \"design\": \"skat\", \"hours\": 2, \"dt_s\": 1.5, "
      "\"water_c\": 16, \"pump_fail_h\": 0.5, \"timeout_s\": 10}");
  ASSERT_TRUE(Request) << Request.message();
  EXPECT_EQ(Request->Id, "r1");
  EXPECT_EQ(Request->Kind, RequestKind::Transient);
  EXPECT_EQ(Request->Design, "skat");
  EXPECT_EQ(Request->Hours.value_or(0.0), 2.0);
  EXPECT_EQ(Request->DtS.value_or(0.0), 1.5);
  EXPECT_EQ(Request->WaterC.value_or(0.0), 16.0);
  EXPECT_EQ(Request->PumpFailH.value_or(0.0), 0.5);
  EXPECT_EQ(Request->TimeoutS.value_or(0.0), 10.0);
}

TEST(ServiceProtocolTest, RejectsUnknownKeysAndBadShapes) {
  // Strict parsing: a typo must not silently evaluate the wrong what-if.
  EXPECT_FALSE(parseServiceRequest(
      "{\"kind\": \"service_request\", \"id\": \"r\", \"type\": "
      "\"steady\", \"design\": \"skat\", \"watter_c\": 16}"));
  EXPECT_FALSE(parseServiceRequest("{\"kind\": \"service_request\", "
                                   "\"type\": \"steady\", \"design\": "
                                   "\"skat\"}")); // No id.
  EXPECT_FALSE(parseServiceRequest(
      "{\"kind\": \"service_request\", \"id\": \"r\", \"type\": "
      "\"warp\", \"design\": \"skat\"}")); // Unknown type.
  EXPECT_FALSE(parseServiceRequest(
      "{\"kind\": \"service_request\", \"id\": \"r\", \"type\": "
      "\"steady\"}")); // Steady needs a design.
  EXPECT_FALSE(parseServiceRequest(
      "{\"kind\": \"service_request\", \"id\": \"r\", \"type\": "
      "\"faults\"}")); // Faults needs a scenario.
  EXPECT_FALSE(parseServiceRequest(
      "{\"kind\": \"service_request\", \"id\": \"r\", \"type\": "
      "\"transient\", \"design\": \"skat\", \"hours\": 0}"));
  EXPECT_FALSE(parseServiceRequest("not json"));
}

TEST(ServiceProtocolTest, ExactNumberRoundTripsBits) {
  // %.17g must reproduce the exact double; this is what makes bit-identity
  // with the direct API observable through the wire format.
  double Value = 45.638267762836989;
  std::string Rendered = renderExactNumber(Value);
  EXPECT_EQ(std::stod(Rendered), Value);
}

//===----------------------------------------------------------------------===//
// Service evaluation: bit-identity and ordering
//===----------------------------------------------------------------------===//

TEST(ServiceTest, CachedAndBypassResultsMatchDirectTransientRun) {
  ServeConfig Config;
  Config.NumThreads = 1;
  ScenarioService Service(Config);
  std::vector<std::string> Out = runAll(
      Service, {"{\"kind\": \"service_request\", \"id\": \"t\", "
                "\"type\": \"transient\", \"design\": \"skat\", "
                "\"hours\": 0.1, \"dt_s\": 2}"});
  ASSERT_EQ(Out.size(), 1u);
  ASSERT_NE(Out[0].find("\"ok\": true"), std::string::npos) << Out[0];

  // The one-shot path the service mirrors (`skatsim transient` defaults).
  Expected<rcsystem::ModuleConfig> Cfg = core::designModuleByName("skat");
  ASSERT_TRUE(Cfg) << Cfg.message();
  sim::TransientConfig SimCfg;
  SimCfg.TimeStepS = 2.0;
  sim::TransientSimulator Simulator(*Cfg, core::makeNominalConditions(),
                                    SimCfg);
  Expected<std::vector<sim::TraceSample>> Trace =
      Simulator.run(0.1 * 3600.0);
  ASSERT_TRUE(Trace) << Trace.message();
  ASSERT_FALSE(Trace->empty());
  EXPECT_EQ(resultNumber(Out[0], "max_junction_c"),
            Trace->back().MaxJunctionTempC);
  EXPECT_EQ(resultNumber(Out[0], "oil_c"), Trace->back().OilTempC);
  EXPECT_EQ(resultNumber(Out[0], "end_time_s"), Trace->back().TimeS);
}

TEST(ServiceTest, SteadyResultMatchesDirectSolve) {
  ServeConfig Config;
  Config.NumThreads = 1;
  ScenarioService Service(Config);
  std::vector<std::string> Out = runAll(
      Service, {"{\"kind\": \"service_request\", \"id\": \"s\", "
                "\"type\": \"steady\", \"design\": \"skat\", "
                "\"water_c\": 20}"});
  ASSERT_EQ(Out.size(), 1u);
  ASSERT_NE(Out[0].find("\"ok\": true"), std::string::npos) << Out[0];

  // Mirror of `skatsim solve skat --water 20`.
  Expected<rcsystem::ModuleConfig> Cfg = core::designModuleByName("skat");
  ASSERT_TRUE(Cfg) << Cfg.message();
  rcsystem::ExternalConditions Conditions = core::makeNominalConditions();
  Conditions.AmbientAirTempC = 25.0;
  Conditions.WaterInletTempC = 20.0;
  Conditions.WaterFlowM3PerS = units::litersPerMinuteToM3PerS(18.0);
  rcsystem::ComputationalModule Module(*Cfg);
  Expected<rcsystem::ModuleThermalReport> Report =
      Module.solveSteadyState(Conditions, Cfg->Load);
  ASSERT_TRUE(Report) << Report.message();
  EXPECT_EQ(resultNumber(Out[0], "max_junction_c"),
            Report->MaxJunctionTempC);
  EXPECT_EQ(resultNumber(Out[0], "it_power_w"), Report->ItPowerW);
}

TEST(ServiceTest, ResponsesKeepSubmissionOrderAcrossWorkers) {
  ServeConfig Config;
  Config.NumThreads = 4;
  Config.MaxBatch = 8;
  ScenarioService Service(Config);
  std::vector<std::string> Requests;
  for (int I = 0; I != 8; ++I)
    Requests.push_back(
        "{\"kind\": \"service_request\", \"id\": \"r" +
        std::to_string(I) +
        "\", \"type\": \"steady\", \"design\": \"skat\"}");
  std::vector<std::string> Out = runAll(Service, Requests);
  ASSERT_EQ(Out.size(), 8u);
  for (int I = 0; I != 8; ++I)
    EXPECT_NE(Out[static_cast<size_t>(I)].find(
                  "\"id\": \"r" + std::to_string(I) + "\""),
              std::string::npos)
        << Out[static_cast<size_t>(I)];
}

//===----------------------------------------------------------------------===//
// Error paths: parse, backpressure, timeout, evaluation
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ParseErrorYieldsImmediateStructuredResponse) {
  ScenarioService Service;
  auto Immediate = Service.submit("{\"kind\": \"service_request\", "
                                  "\"id\": \"x\", \"type\": \"steady\", "
                                  "\"design\": \"skat\", \"bogus\": 1}");
  ASSERT_TRUE(Immediate.has_value());
  EXPECT_NE(Immediate->find("\"ok\": false"), std::string::npos);
  EXPECT_NE(Immediate->find("\"error_kind\": \"parse\""),
            std::string::npos);
  EXPECT_NE(Immediate->find("bogus"), std::string::npos);
  EXPECT_TRUE(Service.idle());
  EXPECT_EQ(Service.summary().ErrorCount, 1u);
}

TEST(ServiceTest, ParseErrorKeepsTheRequestId) {
  // A bad value and an unknown key fail strict parsing, but each line is
  // an object with a string id, so the error answers under that id. A
  // line with no string id answers under "".
  const std::pair<const char *, const char *> Cases[] = {
      {"{\"kind\": \"service_request\", \"id\": \"neg-dt\", \"type\": "
       "\"transient\", \"design\": \"skat\", \"dt_s\": -1}",
       "neg-dt"},
      {"{\"kind\": \"service_request\", \"id\": \"typo\", \"type\": "
       "\"steady\", \"design\": \"skat\", \"watter_c\": 16}",
       "typo"},
      {"{\"kind\": \"service_request\", \"id\": 7, \"type\": "
       "\"steady\", \"design\": \"skat\"}",
       ""},
      {"[1, 2]", ""},
      {"not json", ""}};
  ScenarioService Service;
  for (const auto &[Line, Id] : Cases) {
    auto Immediate = Service.submit(Line);
    ASSERT_TRUE(Immediate.has_value());
    EXPECT_NE(Immediate->find("\"error_kind\": \"parse\""),
              std::string::npos)
        << *Immediate;
    EXPECT_NE(Immediate->find("\"id\": \"" + std::string(Id) + "\""),
              std::string::npos)
        << *Immediate;
  }
  EXPECT_EQ(Service.summary().ErrorCount, 5u);
}

TEST(ServiceTest, BackpressureRejectsBeyondQueueBound) {
  ServeConfig Config;
  Config.MaxQueueDepth = 1;
  ScenarioService Service(Config);
  const std::string Request =
      "{\"kind\": \"service_request\", \"id\": \"q\", \"type\": "
      "\"steady\", \"design\": \"skat\"}";
  EXPECT_FALSE(Service.submit(Request).has_value());
  auto Rejected = Service.submit(Request);
  ASSERT_TRUE(Rejected.has_value());
  EXPECT_NE(Rejected->find("\"error_kind\": \"queue_full\""),
            std::string::npos);
  std::vector<std::string> Out;
  while (Service.drain(Out))
    ;
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_NE(Out[0].find("\"ok\": true"), std::string::npos);
  ServiceSummary Summary = Service.summary();
  EXPECT_EQ(Summary.Requests, 2u);
  EXPECT_EQ(Summary.Rejected, 1u);
  EXPECT_EQ(Summary.OkCount, 1u);
  EXPECT_EQ(Summary.ErrorCount, 1u);
}

TEST(ServiceTest, ZeroTimeoutExpiresInQueue) {
  ScenarioService Service;
  EXPECT_FALSE(Service
                   .submit("{\"kind\": \"service_request\", \"id\": "
                           "\"late\", \"type\": \"steady\", \"design\": "
                           "\"skat\", \"timeout_s\": 0}")
                   .has_value());
  std::vector<std::string> Out;
  while (Service.drain(Out))
    ;
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_NE(Out[0].find("\"error_kind\": \"timeout\""), std::string::npos)
      << Out[0];
  EXPECT_EQ(Service.summary().TimedOut, 1u);
}

TEST(ServiceTest, EvaluationErrorsAreStructuredNotFatal) {
  ScenarioService Service;
  std::vector<std::string> Out = runAll(
      Service,
      {"{\"kind\": \"service_request\", \"id\": \"bad-design\", "
       "\"type\": \"steady\", \"design\": \"nope\"}",
       "{\"kind\": \"service_request\", \"id\": \"bad-scenario\", "
       "\"type\": \"faults\", \"scenario\": \"/does/not/exist.json\"}",
       "{\"kind\": \"service_request\", \"id\": \"air-transient\", "
       "\"type\": \"transient\", \"design\": \"ultrascale-air\"}"});
  ASSERT_EQ(Out.size(), 3u);
  for (const std::string &Line : Out) {
    EXPECT_NE(Line.find("\"ok\": false"), std::string::npos) << Line;
    EXPECT_NE(Line.find("\"error_kind\": \"evaluation\""),
              std::string::npos)
        << Line;
  }
  EXPECT_EQ(Service.summary().ErrorCount, 3u);
}

//===----------------------------------------------------------------------===//
// Concurrent service batch (the TSan leg's main course)
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ConcurrentMixedBatchSharesTheCacheSafely) {
  ServeConfig Config;
  Config.NumThreads = 4;
  Config.MaxBatch = 32;
  ScenarioService Service(Config);
  std::vector<std::string> Requests;
  for (int I = 0; I != 24; ++I) {
    // Steady requests and two transient plants (dt 2 and dt 4),
    // interleaved so workers evaluate identical requests side by side.
    std::string Id = "m" + std::to_string(I);
    if (I % 3 == 0)
      Requests.push_back("{\"kind\": \"service_request\", \"id\": \"" +
                         Id +
                         "\", \"type\": \"steady\", \"design\": "
                         "\"skat\"}");
    else
      Requests.push_back(
          "{\"kind\": \"service_request\", \"id\": \"" + Id +
          "\", \"type\": \"transient\", \"design\": \"skat\", "
          "\"hours\": 0.02, \"dt_s\": " + (I % 3 == 1 ? "2" : "4") +
          "}");
  }
  std::vector<std::string> Out = runAll(Service, Requests);
  ASSERT_EQ(Out.size(), Requests.size());
  for (size_t I = 0; I != Out.size(); ++I) {
    EXPECT_NE(Out[I].find("\"ok\": true"), std::string::npos) << Out[I];
    // Identical requests answer identical payloads, whichever worker ran
    // them and whatever ran beside them.
    EXPECT_EQ(resultPayload(Out[I]), resultPayload(Out[I % 3]));
  }
  EXPECT_NE(resultPayload(Out[1]), resultPayload(Out[2]));

  // A second pass through the same service answers the same payloads.
  std::vector<std::string> Again = runAll(Service, Requests);
  ASSERT_EQ(Again.size(), Requests.size());
  for (size_t I = 0; I != Again.size(); ++I)
    EXPECT_EQ(resultPayload(Again[I]), resultPayload(Out[I]));
  ServiceSummary Summary = Service.summary();
  EXPECT_EQ(Summary.OkCount, 2 * Requests.size());
  EXPECT_EQ(Summary.ErrorCount, 0u);
}

} // namespace
