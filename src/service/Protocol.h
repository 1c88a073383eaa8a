//===- service/Protocol.h - Scenario-service wire protocol ------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `skatsim-service-v1` JSONL protocol (docs/SERVICE.md). Requests
/// arrive one JSON object per line and are strict-parsed like fault
/// scenarios: unknown keys are hard errors, so typos surface as
/// structured error responses instead of silently evaluating the wrong
/// what-if. The response stream opens with a header line, carries one
/// `service_response` line per request (in submission order), and closes
/// with a `service_summary` whose counts `tools/check_trace` reconciles
/// against the stream.
///
/// Result payloads render doubles at %.17g so a response round-trips
/// bit-identically against the one-shot CLI evaluation it mirrors — the
/// equivalence contract the service tests assert.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_SERVICE_PROTOCOL_H
#define RCS_SERVICE_PROTOCOL_H

#include "support/Status.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rcs {
namespace service {

/// Identifies both the request and response framing of this protocol.
inline constexpr const char *SchemaName = "skatsim-service-v1";

/// What a request asks the daemon to evaluate.
enum class RequestKind {
  Steady,    ///< One steady-state module solve (mirrors `skatsim solve`).
  Transient, ///< A transient run (mirrors `skatsim transient`).
  Faults,    ///< One fault-scenario run (mirrors `skatsim faults run`).
};

const char *requestKindName(RequestKind Kind);

/// One parsed scenario request. Optional fields fall back to the same
/// defaults the CLI paths use, or to the ServeConfig setpoint overrides.
struct ServiceRequest {
  std::string Id;
  RequestKind Kind = RequestKind::Steady;
  /// Design name for steady/transient requests (core::designModuleByName).
  std::string Design;
  /// Scenario file path for faults requests.
  std::string ScenarioPath;
  std::optional<double> AmbientC;  ///< Steady: room air, C.
  std::optional<double> WaterC;    ///< Steady/transient: water inlet, C.
  std::optional<double> WaterLpm;  ///< Steady: water flow, l/min.
  std::optional<double> Util;      ///< Steady: utilization override.
  std::optional<double> Clock;     ///< Steady: clock-fraction override.
  std::optional<double> Hours;     ///< Transient/faults horizon, h.
  std::optional<double> DtS;       ///< Transient: integration step, s.
  std::optional<double> PumpFailH; ///< Transient: pump failure time, h.
  std::optional<uint64_t> Replicate; ///< Faults: hazard RNG stream.
  std::optional<uint64_t> Seed;      ///< Faults: scenario seed override.
  std::optional<double> TimeoutS;  ///< Per-request queue+run deadline, s.
};

/// Strict-parses one request line. Errors name the offending key.
Expected<ServiceRequest> parseServiceRequest(std::string_view Line);

/// The `id` of a request line that failed strict parsing: the line's
/// string `id` member when the line is a JSON object that has one, else
/// empty. Lets a parse-error response name the request it answers.
std::string parseRequestId(std::string_view Line);

/// Where a structured error response originated.
enum class ErrorKind {
  None,
  Parse,     ///< The request line failed strict parsing.
  QueueFull, ///< Rejected by backpressure before entering the queue.
  Timeout,   ///< Deadline expired while queued (never evaluated).
  Evaluation ///< The solver/scenario evaluation itself failed.
};

const char *errorKindName(ErrorKind Kind);

/// One response line. Exactly one of ResultJson (Ok) or Error (!Ok) is
/// populated; ResultJson is a rendered JSON object.
struct ServiceResponse {
  std::string Id;
  bool Ok = false;
  ErrorKind Error = ErrorKind::None;
  std::string ErrorMessage;
  double LatencyS = 0.0;
  std::string ResultJson;
};

/// Stream totals for the closing summary line.
struct ServiceSummary {
  uint64_t Requests = 0;
  uint64_t OkCount = 0;
  uint64_t ErrorCount = 0;
  uint64_t Rejected = 0;
  uint64_t TimedOut = 0;
  /// Always zero and never rendered: the service keeps no solver cache.
  /// Kept only because the benchmark (perfbench/src/Serve.cpp) reads them.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
};

/// The stream-opening header line (schema marker check_trace keys on).
std::string renderServiceHeader();

/// Renders one response line (no trailing newline).
std::string renderServiceResponse(const ServiceResponse &Response);

/// Renders the closing summary line (no trailing newline).
std::string renderServiceSummary(const ServiceSummary &Summary);

/// Renders a double at %.17g (bit round-trip) for result payloads.
std::string renderExactNumber(double Value);

} // namespace service
} // namespace rcs

#endif // RCS_SERVICE_PROTOCOL_H
