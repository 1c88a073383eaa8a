//===- service/Service.h - Batched scenario-evaluation service --*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scenario service behind `skatsim serve`: a bounded request queue
/// with backpressure and batched dispatch onto the support/Parallel.h
/// pool (docs/SERVICE.md). Every request builds its own plant, exactly as
/// the one-shot CLI path it mirrors does.
///
/// Threading model: submit() and drain() are safe to call concurrently
/// from any threads; evaluation inside drain() fans out with
/// rcs::parallelFor and writes responses into pre-sized slots, so the
/// rendered stream keeps submission order regardless of worker
/// scheduling. All shared state is RCS_GUARDED_BY-annotated.
///
/// Failure semantics: a malformed line, a full queue, an expired
/// deadline or a failed evaluation each produce a structured error
/// response (service/Protocol.h) — the service never crashes on input.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_SERVICE_SERVICE_H
#define RCS_SERVICE_SERVICE_H

#include "service/Protocol.h"
#include "support/Status.h"
#include "support/ThreadSafety.h"

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rcs {
namespace service {

/// Tunables of the scenario service, in the CLI-facing magnitudes.
struct ServeConfig {
  /// Evaluation workers per batch; <= 0 means all hardware threads.
  int NumThreads = 0;
  /// Requests evaluated per drain() call.
  int MaxBatch = 8;
  /// Queue bound; submissions beyond it are rejected (queue_full).
  size_t MaxQueueDepth = 64;
  /// Deadline for requests that do not carry their own timeout_s, s.
  double DefaultTimeoutS = 30.0;
  /// Integration step for transient requests without a dt_s, s.
  double TransientDtS = 2.0;
  /// Service-wide chilled-water setpoint override, C (request wins).
  std::optional<double> WaterSetpointC;
  /// Service-wide ambient-air setpoint override, C (request wins).
  std::optional<double> AmbientSetpointC;
};

/// Solver-cache counters. The service keeps no solver cache, so they are
/// always zero; they remain only because the benchmark (perfbench/src/
/// Serve.cpp) reads them.
struct SolverCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Contended = 0;
  uint64_t Evictions = 0;
};

/// The batching scenario evaluator. One instance per daemon; the serve
/// loop feeds submit() and flushes with drain().
class ScenarioService {
public:
  explicit ScenarioService(ServeConfig Config = ServeConfig());
  ScenarioService(const ScenarioService &) = delete;
  ScenarioService &operator=(const ScenarioService &) = delete;

  /// Parses and enqueues one request line. Returns a rendered response
  /// line immediately when the request never enters the queue (parse
  /// error, queue full); nullopt means queued — its response comes from
  /// a later drain() in submission order.
  std::optional<std::string> submit(std::string_view Line);

  /// Evaluates up to MaxBatch queued requests in parallel and appends
  /// one rendered response line per request, in submission order.
  /// Returns the number of requests drained (0 = queue was empty).
  size_t drain(std::vector<std::string> &Out);

  /// True when no request is queued.
  bool idle() const;

  /// Stream totals so far (for the closing summary line).
  ServiceSummary summary() const;

  /// Always zero; read only by the benchmark (see SolverCacheStats).
  SolverCacheStats cacheStats() const { return SolverCacheStats(); }

  const ServeConfig &config() const { return Config; }

private:
  struct Pending {
    ServiceRequest Request;
    /// Registry-clock time the request entered the queue, s.
    double EnqueueS = 0.0;
    /// Queue-wait allowance; waiting >= this long is a timeout.
    double TimeoutS = 0.0;
  };

  ServiceResponse evaluate(const ServiceRequest &Request);
  ServiceResponse evaluateSteady(const ServiceRequest &Request);
  ServiceResponse evaluateTransient(const ServiceRequest &Request);
  ServiceResponse evaluateFaults(const ServiceRequest &Request);

  const ServeConfig Config;
  mutable rcs::Mutex Mu;
  std::deque<Pending> Queue RCS_GUARDED_BY(Mu);
  ServiceSummary Totals RCS_GUARDED_BY(Mu);
};

} // namespace service
} // namespace rcs

#endif // RCS_SERVICE_SERVICE_H
