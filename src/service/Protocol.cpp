//===- service/Protocol.cpp - Scenario-service wire protocol ------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "support/StringUtils.h"
#include "telemetry/Json.h"

#include <cassert>
#include <cmath>

using namespace rcs;
using namespace rcs::service;
using telemetry::JsonValue;

const char *rcs::service::requestKindName(RequestKind Kind) {
  switch (Kind) {
  case RequestKind::Steady:
    return "steady";
  case RequestKind::Transient:
    return "transient";
  case RequestKind::Faults:
    return "faults";
  }
  assert(false && "unknown request kind");
  return "?";
}

const char *rcs::service::errorKindName(ErrorKind Kind) {
  switch (Kind) {
  case ErrorKind::None:
    return "none";
  case ErrorKind::Parse:
    return "parse";
  case ErrorKind::QueueFull:
    return "queue_full";
  case ErrorKind::Timeout:
    return "timeout";
  case ErrorKind::Evaluation:
    return "evaluation";
  }
  assert(false && "unknown error kind");
  return "?";
}

namespace {

Expected<double> asNumber(const JsonValue &Value, const std::string &Key) {
  if (!Value.isNumber())
    return Expected<double>::error("request: '" + Key +
                                   "' must be a number");
  return Value.NumberValue;
}

Expected<std::string> asString(const JsonValue &Value,
                               const std::string &Key) {
  if (!Value.isString())
    return Expected<std::string>::error("request: '" + Key +
                                        "' must be a string");
  return Value.StringValue;
}

Expected<uint64_t> asIndex(const JsonValue &Value, const std::string &Key) {
  auto V = asNumber(Value, Key);
  if (!V)
    return Expected<uint64_t>::error(V.message());
  if (*V < 0.0 || *V != std::floor(*V))
    return Expected<uint64_t>::error("request: '" + Key +
                                     "' must be a non-negative integer");
  return static_cast<uint64_t>(*V);
}

} // namespace

Expected<ServiceRequest>
rcs::service::parseServiceRequest(std::string_view Line) {
  Expected<JsonValue> Doc = telemetry::parseJson(Line);
  if (!Doc)
    return Expected<ServiceRequest>::error("request: " + Doc.message());
  if (!Doc->isObject())
    return Expected<ServiceRequest>::error(
        "request: each line must be a JSON object");

  ServiceRequest Request;
  bool HaveKind = false;
  bool HaveType = false;
  for (const auto &[Key, Value] : Doc->Members) {
    if (Key == "kind") {
      auto V = asString(Value, Key);
      if (!V)
        return V.status();
      if (*V != "service_request")
        return Expected<ServiceRequest>::error(
            "request: 'kind' must be \"service_request\"");
      HaveKind = true;
    } else if (Key == "id") {
      auto V = asString(Value, Key);
      if (!V)
        return V.status();
      Request.Id = *V;
    } else if (Key == "type") {
      auto V = asString(Value, Key);
      if (!V)
        return V.status();
      std::string Type = toLower(*V);
      if (Type == "steady")
        Request.Kind = RequestKind::Steady;
      else if (Type == "transient")
        Request.Kind = RequestKind::Transient;
      else if (Type == "faults")
        Request.Kind = RequestKind::Faults;
      else
        return Expected<ServiceRequest>::error(
            "request: unknown type '" + *V +
            "' (steady, transient or faults)");
      HaveType = true;
    } else if (Key == "design") {
      auto V = asString(Value, Key);
      if (!V)
        return V.status();
      Request.Design = *V;
    } else if (Key == "scenario") {
      auto V = asString(Value, Key);
      if (!V)
        return V.status();
      Request.ScenarioPath = *V;
    } else if (Key == "ambient_c") {
      auto V = asNumber(Value, Key);
      if (!V)
        return V.status();
      Request.AmbientC = *V;
    } else if (Key == "water_c") {
      auto V = asNumber(Value, Key);
      if (!V)
        return V.status();
      Request.WaterC = *V;
    } else if (Key == "water_lpm") {
      auto V = asNumber(Value, Key);
      if (!V)
        return V.status();
      Request.WaterLpm = *V;
    } else if (Key == "util") {
      auto V = asNumber(Value, Key);
      if (!V)
        return V.status();
      Request.Util = *V;
    } else if (Key == "clock") {
      auto V = asNumber(Value, Key);
      if (!V)
        return V.status();
      Request.Clock = *V;
    } else if (Key == "hours") {
      auto V = asNumber(Value, Key);
      if (!V)
        return V.status();
      if (*V <= 0.0)
        return Expected<ServiceRequest>::error(
            "request: 'hours' must be positive");
      Request.Hours = *V;
    } else if (Key == "dt_s") {
      auto V = asNumber(Value, Key);
      if (!V)
        return V.status();
      if (*V <= 0.0)
        return Expected<ServiceRequest>::error(
            "request: 'dt_s' must be positive");
      Request.DtS = *V;
    } else if (Key == "pump_fail_h") {
      auto V = asNumber(Value, Key);
      if (!V)
        return V.status();
      Request.PumpFailH = *V;
    } else if (Key == "replicate") {
      auto V = asIndex(Value, Key);
      if (!V)
        return V.status();
      Request.Replicate = *V;
    } else if (Key == "seed") {
      auto V = asIndex(Value, Key);
      if (!V)
        return V.status();
      Request.Seed = *V;
    } else if (Key == "timeout_s") {
      auto V = asNumber(Value, Key);
      if (!V)
        return V.status();
      if (*V < 0.0)
        return Expected<ServiceRequest>::error(
            "request: 'timeout_s' must be non-negative");
      Request.TimeoutS = *V;
    } else {
      return Expected<ServiceRequest>::error("request: unknown key '" +
                                             Key + "'");
    }
  }

  if (!HaveKind)
    return Expected<ServiceRequest>::error(
        "request: missing 'kind': \"service_request\"");
  if (!HaveType)
    return Expected<ServiceRequest>::error("request: missing 'type'");
  if (Request.Id.empty())
    return Expected<ServiceRequest>::error(
        "request: missing or empty 'id'");
  switch (Request.Kind) {
  case RequestKind::Steady:
  case RequestKind::Transient:
    if (Request.Design.empty())
      return Expected<ServiceRequest>::error(
          "request: steady/transient requests need a 'design'");
    break;
  case RequestKind::Faults:
    if (Request.ScenarioPath.empty())
      return Expected<ServiceRequest>::error(
          "request: faults requests need a 'scenario' path");
    break;
  }
  return Request;
}

std::string rcs::service::parseRequestId(std::string_view Line) {
  Expected<JsonValue> Doc = telemetry::parseJson(Line);
  if (!Doc || !Doc->isObject())
    return std::string();
  const JsonValue *Id = Doc->find("id");
  return Id && Id->isString() ? Id->StringValue : std::string();
}

std::string rcs::service::renderExactNumber(double Value) {
  if (!std::isfinite(Value))
    return "null";
  return formatString("%.17g", Value);
}

std::string rcs::service::renderServiceHeader() {
  return formatString("{\"kind\": \"service_header\", \"schema\": \"%s\", "
                      "\"version\": 1}",
                      SchemaName);
}

std::string
rcs::service::renderServiceResponse(const ServiceResponse &Response) {
  std::string Line = formatString(
      "{\"kind\": \"service_response\", \"id\": %s, \"ok\": %s",
      telemetry::jsonQuote(Response.Id).c_str(),
      Response.Ok ? "true" : "false");
  if (Response.Ok) {
    Line += ", \"latency_s\": " + telemetry::jsonNumber(Response.LatencyS);
    Line += ", \"result\": " + Response.ResultJson;
  } else {
    Line += formatString(", \"error_kind\": \"%s\"",
                         errorKindName(Response.Error));
    Line += ", \"error\": " + telemetry::jsonQuote(Response.ErrorMessage);
  }
  Line += "}";
  return Line;
}

std::string
rcs::service::renderServiceSummary(const ServiceSummary &Summary) {
  return formatString(
      "{\"kind\": \"service_summary\", \"requests\": %llu, \"ok\": %llu, "
      "\"errors\": %llu, \"rejected\": %llu, \"timed_out\": %llu}",
      static_cast<unsigned long long>(Summary.Requests),
      static_cast<unsigned long long>(Summary.OkCount),
      static_cast<unsigned long long>(Summary.ErrorCount),
      static_cast<unsigned long long>(Summary.Rejected),
      static_cast<unsigned long long>(Summary.TimedOut));
}
