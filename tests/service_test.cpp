//===- tests/service_test.cpp - Scenario-service tests ------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the `skatsim serve` scenario service: strict protocol
/// parsing, the keyed solver-cache registry (hit/miss/contention/
/// eviction/invalidation), bit-identical results warm vs cold vs bypass
/// and against the direct one-shot API,
/// backpressure and timeout error paths, and a concurrent hammer that
/// the TSan CI leg runs to certify the lock discipline.
///
//===----------------------------------------------------------------------===//

#include "core/Designs.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "service/SolverCache.h"
#include "sim/Transient.h"
#include "support/Parallel.h"
#include "support/Units.h"
#include "system/Module.h"
#include "telemetry/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
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

/// A trivial cache entry builder that counts invocations.
SolverCacheRegistry::BuildFn countingBuild(int &Calls) {
  return [&Calls]() -> Expected<PlantCacheEntry> {
    ++Calls;
    PlantCacheEntry Entry;
    return Entry;
  };
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
  // %.17g must reproduce the exact double; this is what makes warm-path
  // bit-identity observable through the wire format.
  double Value = 45.638267762836989;
  std::string Rendered = renderExactNumber(Value);
  EXPECT_EQ(std::stod(Rendered), Value);
}

//===----------------------------------------------------------------------===//
// SolverCacheRegistry semantics
//===----------------------------------------------------------------------===//

TEST(SolverCacheTest, MissBuildsThenHitsWithoutRebuilding) {
  SolverCacheRegistry Registry(4);
  SolverCacheKey Key{1, 2.0};
  int Builds = 0;
  {
    Expected<SolverCacheRegistry::Lease> Lease =
        Registry.acquire(Key, countingBuild(Builds));
    ASSERT_TRUE(Lease) << Lease.message();
    EXPECT_TRUE(static_cast<bool>(*Lease));
    EXPECT_FALSE(Lease->warm());
  }
  {
    Expected<SolverCacheRegistry::Lease> Lease =
        Registry.acquire(Key, countingBuild(Builds));
    ASSERT_TRUE(Lease) << Lease.message();
    EXPECT_TRUE(Lease->warm());
  }
  EXPECT_EQ(Builds, 1);
  SolverCacheStats Stats = Registry.stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Entries, 1u);
}

TEST(SolverCacheTest, DistinctDtIsADistinctKey) {
  SolverCacheRegistry Registry(4);
  int Builds = 0;
  { auto L = Registry.acquire({1, 1.0}, countingBuild(Builds)); }
  { auto L = Registry.acquire({1, 2.0}, countingBuild(Builds)); }
  EXPECT_EQ(Builds, 2);
  EXPECT_EQ(Registry.stats().Entries, 2u);
}

TEST(SolverCacheTest, ContendedKeyBuildsDetachedEntry) {
  SolverCacheRegistry Registry(4);
  SolverCacheKey Key{7, 1.0};
  int Builds = 0;
  Expected<SolverCacheRegistry::Lease> First =
      Registry.acquire(Key, countingBuild(Builds));
  ASSERT_TRUE(First);
  // The resident entry is leased out: the second acquire must not block
  // or fail — it builds a private entry and records the contention.
  Expected<SolverCacheRegistry::Lease> Second =
      Registry.acquire(Key, countingBuild(Builds));
  ASSERT_TRUE(Second);
  EXPECT_FALSE(Second->warm());
  EXPECT_EQ(Builds, 2);
  EXPECT_EQ(Registry.stats().Contended, 1u);
  *Second = SolverCacheRegistry::Lease(); // Detached: dies silently.
  *First = SolverCacheRegistry::Lease();
  // Only the slot-backed entry returned to the registry.
  EXPECT_EQ(Registry.stats().Entries, 1u);
}

TEST(SolverCacheTest, LruEvictionBoundsResidentEntries) {
  SolverCacheRegistry Registry(2);
  int Builds = 0;
  { auto L = Registry.acquire({1, 1.0}, countingBuild(Builds)); }
  { auto L = Registry.acquire({2, 1.0}, countingBuild(Builds)); }
  // Touch key 2 so key 1 is the LRU victim.
  { auto L = Registry.acquire({2, 1.0}, countingBuild(Builds)); }
  { auto L = Registry.acquire({3, 1.0}, countingBuild(Builds)); }
  SolverCacheStats Stats = Registry.stats();
  EXPECT_EQ(Stats.Entries, 2u);
  EXPECT_EQ(Stats.Evictions, 1u);
  // Key 2 survived; key 1 was evicted and must rebuild.
  { auto L = Registry.acquire({2, 1.0}, countingBuild(Builds)); }
  EXPECT_EQ(Registry.stats().Hits, 2u);
  int BuildsBefore = Builds;
  { auto L = Registry.acquire({1, 1.0}, countingBuild(Builds)); }
  EXPECT_EQ(Builds, BuildsBefore + 1);
}

TEST(SolverCacheTest, InvalidationDropsIdleAndStaleLeasedEntries) {
  SolverCacheRegistry Registry(4);
  SolverCacheKey Key{9, 1.0};
  int Builds = 0;
  { auto L = Registry.acquire(Key, countingBuild(Builds)); }
  Registry.invalidate(Key);
  EXPECT_EQ(Registry.stats().Entries, 0u);
  EXPECT_EQ(Registry.stats().Invalidations, 1u);

  // Invalidate while leased: the entry is marked stale and discarded on
  // release rather than being reinserted warm.
  {
    Expected<SolverCacheRegistry::Lease> Lease =
        Registry.acquire(Key, countingBuild(Builds));
    ASSERT_TRUE(Lease);
    Registry.invalidateAll();
  }
  EXPECT_EQ(Registry.stats().Entries, 0u);
  int BuildsBefore = Builds;
  {
    Expected<SolverCacheRegistry::Lease> Lease =
        Registry.acquire(Key, countingBuild(Builds));
    ASSERT_TRUE(Lease);
    EXPECT_FALSE(Lease->warm());
  }
  EXPECT_EQ(Builds, BuildsBefore + 1);
}

TEST(SolverCacheTest, ConcurrentHammerKeepsAccounting) {
  // More keys than capacity, more threads than keys: exercises hit,
  // miss, contention, eviction and release racing under TSan.
  SolverCacheRegistry Registry(4);
  std::atomic<int> Failures{0};
  const size_t NumAcquires = 256;
  parallelFor(8, NumAcquires, [&](size_t I) {
    SolverCacheKey Key{I % 6, 1.0};
    Expected<SolverCacheRegistry::Lease> Lease =
        Registry.acquire(Key, [&]() -> Expected<PlantCacheEntry> {
          PlantCacheEntry Entry;
          return Entry;
        });
    if (!Lease || !*Lease)
      ++Failures;
    if ((I % 32) == 0)
      Registry.invalidate(Key);
  });
  EXPECT_EQ(Failures.load(), 0);
  SolverCacheStats Stats = Registry.stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses, NumAcquires);
  EXPECT_LE(Stats.Entries, 4u);
}

//===----------------------------------------------------------------------===//
// Service evaluation: bit-identity and ordering
//===----------------------------------------------------------------------===//

TEST(ServiceTest, WarmAndColdTransientResultsAreBitIdentical) {
  ServeConfig Config;
  Config.NumThreads = 1;
  Config.MaxBatch = 1; // One request per drain: cold then warm.
  ScenarioService Service(Config);
  const std::string Request =
      "{\"kind\": \"service_request\", \"id\": \"t\", \"type\": "
      "\"transient\", \"design\": \"skat\", \"hours\": 0.1}";
  std::vector<std::string> Out = runAll(Service, {Request, Request});
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_NE(Out[0].find("\"cache\": \"cold\""), std::string::npos);
  EXPECT_NE(Out[1].find("\"cache\": \"warm\""), std::string::npos);
  ASSERT_FALSE(resultPayload(Out[0]).empty()) << Out[0];
  EXPECT_EQ(resultPayload(Out[0]), resultPayload(Out[1]));
}

TEST(ServiceTest, CachedAndBypassResultsMatchDirectTransientRun) {
  const std::string Request =
      "{\"kind\": \"service_request\", \"id\": \"t\", \"type\": "
      "\"transient\", \"design\": \"skat\", \"hours\": 0.1, \"dt_s\": 2}";
  ServeConfig Cached;
  Cached.NumThreads = 1;
  ScenarioService CachedService(Cached);
  ServeConfig Bypass = Cached;
  Bypass.UseSolverCache = false;
  ScenarioService BypassService(Bypass);
  std::vector<std::string> CachedOut = runAll(CachedService, {Request});
  std::vector<std::string> BypassOut = runAll(BypassService, {Request});
  ASSERT_EQ(CachedOut.size(), 1u);
  ASSERT_EQ(BypassOut.size(), 1u);
  EXPECT_NE(BypassOut[0].find("\"cache\": \"bypass\""), std::string::npos);
  EXPECT_EQ(resultPayload(CachedOut[0]), resultPayload(BypassOut[0]));

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
  EXPECT_EQ(resultNumber(CachedOut[0], "max_junction_c"),
            Trace->back().MaxJunctionTempC);
  EXPECT_EQ(resultNumber(CachedOut[0], "oil_c"), Trace->back().OilTempC);
  EXPECT_EQ(resultNumber(CachedOut[0], "end_time_s"),
            Trace->back().TimeS);
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
  // A steady solve has no warm state to lease, so it skips the cache.
  EXPECT_NE(Out[0].find("\"cache\": \"bypass\""), std::string::npos);
  EXPECT_EQ(Service.cacheStats().Hits + Service.cacheStats().Misses, 0u);

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
// Concurrent service hammer (the TSan leg's main course)
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ConcurrentMixedBatchSharesTheCacheSafely) {
  ServeConfig Config;
  Config.NumThreads = 4;
  Config.MaxBatch = 32;
  Config.CacheMaxEntries = 4;
  ScenarioService Service(Config);
  std::vector<std::string> Requests;
  for (int I = 0; I != 24; ++I) {
    // Two transient keys (dt 2 and dt 4), interleaved so concurrent
    // workers collide on warm entries, plus steady requests that bypass
    // the cache.
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
  for (const std::string &Line : Out)
    EXPECT_NE(Line.find("\"ok\": true"), std::string::npos) << Line;
  SolverCacheStats Stats = Service.cacheStats();
  EXPECT_EQ(Stats.Hits + Stats.Misses, 16u); // The transient requests.
  EXPECT_GT(Stats.Hits, 0u);
  ServiceSummary Summary = Service.summary();
  EXPECT_EQ(Summary.OkCount, Requests.size());
  EXPECT_EQ(Summary.ErrorCount, 0u);

  // Same batch again: every key is resident now, so apart from
  // contention-driven private builds the leases come back warm.
  std::vector<std::string> Again = runAll(Service, Requests);
  ASSERT_EQ(Again.size(), Requests.size());
  for (size_t I = 0; I != Again.size(); ++I)
    EXPECT_EQ(resultPayload(Again[I]), resultPayload(Out[I]));
}

} // namespace
