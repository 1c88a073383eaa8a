//===- perfbench/src/Serve.cpp - Open-loop scenario-service workload ------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One generator thread submits a seeded mix of steady, transient and
// faults requests to an in-process service::ScenarioService on a Poisson
// schedule; one consumer thread drains whenever requests are queued. The
// loop is open: arrivals follow the schedule whatever the service does, so
// a stall shows as queue wait, and each latency runs from the time the
// request was due. The only workload on queueing, batching, the protocol
// and the shared solver cache.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"

#include "service/Service.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace rcs;
using namespace perfbench;

bool perfbench::parseResponseLine(const std::string &Line, std::string &Id,
                                  bool &Ok) {
  static const std::string Head =
      "{\"kind\": \"service_response\", \"id\": \"";
  if (Line.compare(0, Head.size(), Head) != 0)
    return false;
  size_t End = Line.find('"', Head.size());
  if (End == std::string::npos)
    return false;
  Id = Line.substr(Head.size(), End - Head.size());
  const std::string Rest = Line.substr(End + 1);
  if (Rest.compare(0, 14, ", \"ok\": true, ") == 0)
    Ok = true;
  else if (Rest.compare(0, 15, ", \"ok\": false, ") == 0)
    Ok = false;
  else
    return false;
  return true;
}

namespace {

/// Requests offered at \p RatePerS over \p Seconds, and never fewer than
/// the windowed and pooled percentiles need; whole blocks of the mix for
/// each of ten windows.
int requestsPerPhase(double RatePerS, double Seconds) {
  const int Unit = 10 * ServeBlock;
  const int N = std::max(static_cast<int>(minSamples(ServeBlock)),
                         static_cast<int>(RatePerS * Seconds));
  return (N + Unit - 1) / Unit * Unit;
}

struct RequestRecord {
  Clock::time_point Due;
  Clock::time_point DrainStart;
  Clock::time_point Done;
  bool Answered = false;
  bool Ok = false;
  bool Refused = false;
  /// Refused or answered with a capacity error (queue full, timeout).
  bool Overload = false;
};

struct PhaseOutcome {
  std::string Name;
  double RatePerS = 0.0;
  std::vector<RequestRecord> Records;
  std::vector<double> BatchMs;
  std::vector<double> BatchSizes;
  std::vector<double> SubmitUs;
  std::vector<double> LateMs;
  size_t OutstandingAtEnd = 0;
  uint64_t Malformed = 0;
  double BatchBusyS = 0.0;

  std::vector<double> latencyMs(const ServePhase &Phase,
                                int Kind = -1) const {
    std::vector<double> Out;
    for (size_t I = 0; I != Records.size(); ++I) {
      const RequestRecord &Rec = Records[I];
      if (!Rec.Answered || !Rec.Ok)
        continue;
      if (Kind >= 0 && static_cast<int>(Phase.Requests[I].Kind) != Kind)
        continue;
      Out.push_back(secondsBetween(Rec.Due, Rec.Done) * 1e3);
    }
    return Out;
  }
  uint64_t failures() const {
    uint64_t N = Malformed;
    for (const RequestRecord &Rec : Records)
      N += !Rec.Answered || !Rec.Ok;
    return N;
  }
  /// Answered-ok requests per second, first due time to last response.
  double achievedRate() const {
    Clock::time_point First = Records.front().Due, Last = First;
    uint64_t Ok = 0;
    for (const RequestRecord &Rec : Records)
      if (Rec.Answered && Rec.Ok) {
        ++Ok;
        Last = std::max(Last, Rec.Done);
      }
    double S = secondsBetween(First, Last);
    return S > 0.0 ? static_cast<double>(Ok) / S : 0.0;
  }
};

size_t requestIndex(const std::string &Id) {
  size_t Dash = Id.find('-');
  return Dash == std::string::npos
             ? SIZE_MAX
             : static_cast<size_t>(std::stoul(Id.substr(Dash + 1)));
}

/// One spin-wait iteration; the pause hint keeps a polling thread from
/// starving a hyperthread sibling.
void relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Offers \p Phase to \p Svc open loop and collects every response.
PhaseOutcome runPhase(service::ScenarioService &Svc, const ServePhase &Phase,
                      bool Trace) {
  PhaseOutcome Out;
  Out.Name = Phase.Name;
  Out.RatePerS = Phase.RatePerS;
  const size_t N = Phase.Requests.size();
  Out.Records.resize(N);

  // Generator and consumer spin instead of sleeping: on a VM, waking an
  // idle vCPU costs a variable 0.1-5 ms, which would otherwise dominate
  // the latencies measured here. Each stays on its own hardware thread.
  std::atomic<size_t> Queued{0}; // Submitted and not yet drained.
  std::atomic<bool> GeneratorDone{false};

  std::thread Consumer([&] {
    std::vector<std::string> Lines;
    while (true) {
      if (Queued.load(std::memory_order_acquire) == 0) {
        // Done is set after the last increment, so seeing it with an
        // empty count means everything was drained.
        if (GeneratorDone.load(std::memory_order_acquire) &&
            Queued.load(std::memory_order_acquire) == 0)
          return;
        relax();
        continue;
      }
      Lines.clear();
      Clock::time_point Start = Clock::now();
      size_t Drained = 0;
      {
        BenchSpan Span(Trace, "bench.service.drain");
        Drained = Svc.drain(Lines);
      }
      Clock::time_point End = Clock::now();
      if (Drained == 0) {
        std::this_thread::yield();
        continue;
      }
      Out.BatchMs.push_back(secondsBetween(Start, End) * 1e3);
      Out.BatchSizes.push_back(static_cast<double>(Drained));
      Out.BatchBusyS += secondsBetween(Start, End);
      for (const std::string &Line : Lines) {
        std::string Id;
        bool Ok = false;
        size_t I = parseResponseLine(Line, Id, Ok) ? requestIndex(Id) : SIZE_MAX;
        if (I >= N) {
          ++Out.Malformed;
          continue;
        }
        RequestRecord &Rec = Out.Records[I];
        Rec.Answered = true;
        Rec.Ok = Ok;
        Rec.DrainStart = Start;
        Rec.Done = End;
        Rec.Overload = !Ok && (Line.find("\"queue_full\"") != std::string::npos ||
                               Line.find("\"timeout\"") != std::string::npos);
      }
      Queued.fetch_sub(Drained, std::memory_order_acq_rel);
    }
  });

  const Clock::time_point Start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t I = 0; I != N; ++I) {
    const ServeRequest &Req = Phase.Requests[I];
    RequestRecord &Rec = Out.Records[I];
    Rec.Due = Start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(Req.DueS));
    while (Clock::now() < Rec.Due)
      relax();
    Clock::time_point Submit = Clock::now();
    Out.LateMs.push_back(secondsBetween(Rec.Due, Submit) * 1e3);
    std::optional<std::string> Immediate;
    {
      BenchSpan Span(Trace, "bench.service.submit");
      Immediate = Svc.submit(Req.Line);
    }
    Out.SubmitUs.push_back(secondsBetween(Submit, Clock::now()) * 1e6);
    if (Immediate) {
      Rec.Refused = true;
      Rec.Overload = Immediate->find("\"queue_full\"") != std::string::npos;
      continue;
    }
    const size_t Outstanding =
        Queued.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (I + 1 == N)
      Out.OutstandingAtEnd = Outstanding;
  }
  GeneratorDone.store(true, std::memory_order_release);
  Consumer.join();
  return Out;
}

struct ServeSetup {
  std::vector<std::string> ScenarioPaths;
  std::vector<ServePhase> Fixed; ///< light, busy, heavy.
  /// ServeClimbs climbs of the rungs above heavy.
  std::vector<std::vector<ServePhase>> Climbs;
  std::unique_ptr<service::ScenarioService> Svc;
  uint64_t WarmupRequests = 0;
};

service::ServeConfig serveConfig(int Nproc) {
  service::ServeConfig Config;
  // The consumer thread is one of the pool's workers; the generator
  // takes the last hardware thread.
  Config.NumThreads = std::max(1, Nproc - 1);
  // Deep enough that a fixed-rate burst is never refused.
  Config.MaxQueueDepth = 4096;
  return Config;
}

bool setUp(const Options &Opts, const std::string &WorkDir, ServeSetup &S) {
  S = ServeSetup();
  std::vector<std::string> Scenarios = serveScenarios(Opts.Seed);
  for (size_t I = 0; I != Scenarios.size(); ++I) {
    std::string Path = WorkDir + "/serve-scenario-" + std::to_string(I) + ".json";
    std::ofstream File(Path);
    File << Scenarios[I] << "\n";
    if (!File)
      return false;
    S.ScenarioPaths.push_back(Path);
  }
  // The light phase carries the gated latencies, so it gets the longest
  // share of the run.
  struct FixedRate {
    const char *Name;
    double Rate;
    double Share;
  };
  int Phase = 0;
  for (FixedRate F : {FixedRate{"light", ServeLightRps, 0.3},
                      FixedRate{"busy", ServeBusyRps, 0.15},
                      FixedRate{"heavy", ServeHeavyRps, 0.1}})
    S.Fixed.push_back(servePhase(
        Opts.Seed, Phase++, F.Name, F.Rate,
        requestsPerPhase(F.Rate, F.Share * Opts.Seconds), S.ScenarioPaths));
  S.Climbs.resize(ServeClimbs);
  for (std::vector<ServePhase> &Climb : S.Climbs)
    for (double Rate : ServeLadderRps)
      Climb.push_back(servePhase(
          Opts.Seed, Phase++, "ladder-" + std::to_string(int(Rate)), Rate,
          requestsPerPhase(Rate, 0.05 * Opts.Seconds), S.ScenarioPaths));
  S.Svc = std::make_unique<service::ScenarioService>(serveConfig(Opts.Nproc));
  // Warm-up: the hot transient key, a steady solve and a short faults run
  // fill the hot cache entry and the property tables. The faults run stops
  // before any generated fault starts, so the warm-up costs the same for
  // every seed.
  const std::vector<std::string> Lines = {
      "{\"kind\": \"service_request\", \"id\": \"warm\", \"type\": "
      "\"transient\", \"design\": \"skat\", \"hours\": 0.5, \"dt_s\": 2}",
      "{\"kind\": \"service_request\", \"id\": \"warm\", \"type\": "
      "\"steady\", \"design\": \"skat\"}",
      "{\"kind\": \"service_request\", \"id\": \"warm\", \"type\": "
      "\"faults\", \"scenario\": \"" +
          S.ScenarioPaths[0] + "\", \"hours\": 0.25}"};
  bool Ok = true;
  for (const std::string &Line : Lines) {
    Ok = Ok && !S.Svc->submit(Line);
    ++S.WarmupRequests;
  }
  std::vector<std::string> Responses;
  while (S.Svc->drain(Responses) != 0) {
  }
  for (const std::string &Line : Responses) {
    std::string Id;
    bool RespOk = false;
    Ok = Ok && parseResponseLine(Line, Id, RespOk) && RespOk;
  }
  return Ok && Responses.size() == Lines.size();
}

void addSummary(service::ServiceSummary &Sum,
                const service::ServiceSummary &More) {
  Sum.Requests += More.Requests;
  Sum.OkCount += More.OkCount;
  Sum.ErrorCount += More.ErrorCount;
  Sum.Rejected += More.Rejected;
  Sum.TimedOut += More.TimedOut;
  Sum.CacheHits += More.CacheHits;
  Sum.CacheMisses += More.CacheMisses;
}

void addCacheDelta(service::SolverCacheStats &Sum,
                   const service::SolverCacheStats &Before,
                   const service::SolverCacheStats &After) {
  Sum.Hits += After.Hits - Before.Hits;
  Sum.Misses += After.Misses - Before.Misses;
  Sum.Contended += After.Contended - Before.Contended;
  Sum.Evictions += After.Evictions - Before.Evictions;
}

/// A rung passes when every request was answered ok, its p99 meets the
/// limit, and the backlog left when the last request arrived is no more
/// than the limit lets the queue hold (Little's law at the offered rate).
bool rungPasses(const PhaseOutcome &P, const ServePhase &Phase, Result &R) {
  const std::vector<double> Latency = P.latencyMs(Phase);
  Percentile P99 = nearestRank(Latency, 0.99);
  const double BacklogBound =
      P.RatePerS * ServeLatencyLimitMs / 1e3 + 8.0;
  const bool Pass = P.failures() == 0 && P99.Reportable &&
                    P99.Value <= ServeLatencyLimitMs &&
                    static_cast<double>(P.OutstandingAtEnd) <= BacklogBound;
  char Line[200];
  std::snprintf(Line, sizeof(Line),
                "%s: %zu requests, p50 %.3f p90 %.3f p99 %.3f ms, backlog "
                "%zu, %llu failed, %.1f req/s achieved",
                Pass ? "pass" : "FAIL", P.Records.size(),
                nearestRank(Latency, 0.5).Value,
                nearestRank(Latency, 0.9).Value, P99.Value,
                P.OutstandingAtEnd,
                static_cast<unsigned long long>(P.failures()),
                P.achievedRate());
  R.context("rung_" + P.Name, Line);
  return Pass;
}

} // namespace

void perfbench::runServeWorkload(const Options &Opts, Result &R) {
  const std::string WorkDir = Opts.WorkDir;
  ServeSetup S;
  bool SetUpOk = true;
  // A set-up replaces the service, so the summary the final check
  // reconciles is the sum over every service the run built.
  service::ServiceSummary Retired;
  uint64_t WarmupRequests = 0;
  SetupTimer Setups([&] {
    if (S.Svc)
      addSummary(Retired, S.Svc->summary());
    SetUpOk = setUp(Opts, WorkDir, S) && SetUpOk;
    WarmupRequests += S.WarmupRequests;
  }, Opts.Seconds);
  for (size_t I = 0; I != SetupTimer::Before && SetUpOk; ++I)
    Setups.once();
  R.check(SetUpOk, "service set-up and warm-up requests answered ok");
  if (!SetUpOk)
    return;
  const service::ServeConfig &Config = S.Svc->config();
  R.context("service_threads", std::to_string(Config.NumThreads) +
                                   " pool (consumer included) + 1 generator");
  R.context("requests_per_phase", static_cast<double>(S.Fixed[0].Requests.size()));
  R.context("fixed_rates_rps", std::to_string(int(ServeLightRps)) + ", " +
                                   std::to_string(int(ServeBusyRps)) + ", " +
                                   std::to_string(int(ServeHeavyRps)));
  R.context("latency_limit_ms", ServeLatencyLimitMs);
  R.context("mix", "per block of 6: 2 steady, 3 transient (1 repeats the hot "
                   "key), 1 faults, as scenarios/service_requests.jsonl");

  // Set-ups run between phases and replace S; phases are regenerated
  // identically, so they are looked up by index after each one.
  CounterSnapshot Before = snapshotCounters();
  std::vector<PhaseOutcome> Fixed;
  service::SolverCacheStats Cache; // Over the fixed-rate phases.
  for (size_t I = 0; I != S.Fixed.size(); ++I) {
    Setups.between();
    const service::SolverCacheStats CacheBefore = S.Svc->cacheStats();
    Fixed.push_back(runPhase(*S.Svc, S.Fixed[I], false));
    addCacheDelta(Cache, CacheBefore, S.Svc->cacheStats());
  }
  // The ladder stops at the first rung that fails; the fixed rates are
  // its first three rungs. Above them it is climbed ServeClimbs times and
  // the nearest-rank median (of two: the lower) of the climbs' highest
  // passing rates is reported, so one climb that a host stall lets through
  // an extra rung does not decide the figure.
  double FixedMax = 0.0;
  bool Climbing = true;
  for (size_t I = 0; I != Fixed.size() && Climbing; ++I) {
    Climbing = rungPasses(Fixed[I], S.Fixed[I], R);
    if (Climbing)
      FixedMax = Fixed[I].achievedRate();
  }
  std::vector<PhaseOutcome> Ladder;
  std::vector<double> ClimbMax;
  uint64_t LadderEvalErrors = 0, LadderAnswered = 0;
  for (size_t C = 0; C != S.Climbs.size() && Climbing; ++C) {
    double Max = FixedMax;
    for (size_t K = 0; K != S.Climbs[C].size(); ++K) {
      Setups.between();
      const ServePhase &Phase = S.Climbs[C][K];
      Ladder.push_back(runPhase(*S.Svc, Phase, false));
      const PhaseOutcome &P = Ladder.back();
      for (const RequestRecord &Rec : P.Records) {
        LadderAnswered += Rec.Answered;
        LadderEvalErrors += (Rec.Answered && !Rec.Ok && !Rec.Overload) ||
                            (Rec.Refused && !Rec.Overload);
      }
      if (!rungPasses(P, Phase, R))
        break;
      Max = P.achievedRate();
    }
    ClimbMax.push_back(Max);
  }
  CounterSnapshot After = snapshotCounters();
  Setups.report(R);
  R.check(SetUpOk, "set-ups during the run answer their warm-up requests ok");

  // Output checks, outside the clock.
  uint64_t Attempted = 0, Failed = 0, Submitted = WarmupRequests,
           Refused = 0, AnsweredOk = WarmupRequests;
  for (const std::vector<PhaseOutcome> *Set : {&Fixed, &Ladder})
    for (const PhaseOutcome &P : *Set)
      for (const RequestRecord &Rec : P.Records) {
        ++Submitted;
        Refused += Rec.Refused;
        AnsweredOk += Rec.Answered && Rec.Ok;
      }
  for (const PhaseOutcome &P : Fixed) {
    Attempted += P.Records.size();
    Failed += P.failures();
  }
  R.tally(Attempted, Failed, "fixed-rate requests answered ok");
  R.check(LadderEvalErrors == 0,
          "ladder responses fail only by overload (" +
              std::to_string(LadderAnswered) + " answered)");
  service::ServiceSummary Sum = Retired;
  addSummary(Sum, S.Svc->summary());
  R.check(Sum.Requests == Submitted && Sum.OkCount == AnsweredOk &&
              Sum.Rejected == Refused &&
              Sum.OkCount + Sum.ErrorCount == Sum.Requests,
          "service summary reconciles with submitted, answered and refused "
          "counts");
  R.check(counterDelta(Before, After, "hydraulics.flow.solves") == 0,
          "serve makes no hydraulic solve");

  const ServePhase *Names[3] = {&S.Fixed[0], &S.Fixed[1], &S.Fixed[2]};
  for (int I = 0; I != 3; ++I) {
    std::vector<double> Lat = Fixed[I].latencyMs(*Names[I]);
    R.percentile("latency_p50_ms." + Fixed[I].Name, nearestRank(Lat, 0.50),
                 "ms", false);
    R.percentile("latency_p99_ms." + Fixed[I].Name, nearestRank(Lat, 0.99),
                 "ms", false);
  }
  const double MaxRate = ClimbMax.empty() ? FixedMax : median(ClimbMax);
  R.check(MaxRate > 0.0, "the light rate meets the latency limit");
  R.metric("max_rate_rps", MaxRate, "req/s",
           "achieved rate at the highest passing rung, median of " +
               std::to_string(ClimbMax.size()) + " climbs");
  // Throughput is what the service gets done per second it is busy, over
  // the three fixed rates: the load is the same for every commit, so the
  // figure moves only with the program's own speed.
  double BusyS = 0.0, Answered = 0.0;
  for (const PhaseOutcome &P : Fixed) {
    BusyS += P.BatchBusyS;
    for (const RequestRecord &Rec : P.Records)
      Answered += Rec.Answered && Rec.Ok;
  }
  R.metric("ops_per_s", BusyS > 0.0 ? Answered / BusyS : 0.0, "1/s",
           "requests answered per second of drain() time at the fixed rates");
  // Gated at the light rate: there latency is service time with little
  // queueing, which the host's run-to-run speed swings amplify less.
  emitOpPercentiles(R, Fixed[0].latencyMs(S.Fixed[0]), ServeBlock);

  // Service-layer figures over the three fixed-rate phases.
  std::vector<double> Submit, Wait, Batch, Sizes, Late;
  for (size_t I = 0; I != Fixed.size(); ++I) {
    const PhaseOutcome &P = Fixed[I];
    Submit.insert(Submit.end(), P.SubmitUs.begin(), P.SubmitUs.end());
    Batch.insert(Batch.end(), P.BatchMs.begin(), P.BatchMs.end());
    Sizes.insert(Sizes.end(), P.BatchSizes.begin(), P.BatchSizes.end());
    Late.insert(Late.end(), P.LateMs.begin(), P.LateMs.end());
    for (const RequestRecord &Rec : P.Records)
      if (Rec.Answered)
        Wait.push_back(
            std::max(0.0, secondsBetween(Rec.Due, Rec.DrainStart)) * 1e3);
  }
  R.percentile("service.submit_us_p50", nearestRank(Submit, 0.50), "us", false);
  R.percentile("service.queue_wait_ms_p50", nearestRank(Wait, 0.50), "ms", false);
  R.percentile("service.queue_wait_ms_p99", nearestRank(Wait, 0.99), "ms", false);
  R.percentile("service.batch_ms_p50", nearestRank(Batch, 0.50), "ms", false);
  R.percentile("service.batch_ms_p99", nearestRank(Batch, 0.99), "ms", false);
  double SizeSum = 0.0;
  for (double X : Sizes)
    SizeSum += X;
  R.metric("service.batch_size_mean", Sizes.empty() ? 0.0 : SizeSum / Sizes.size(),
           "count");
  R.percentile("service.generator_late_ms_p99", nearestRank(Late, 0.99), "ms",
               false);
  R.metric("service.cache_hit_frac",
           Cache.Hits + Cache.Misses
               ? static_cast<double>(Cache.Hits) / (Cache.Hits + Cache.Misses)
               : 0.0,
           "fraction",
           std::to_string(Cache.Hits) + " hits, " +
               std::to_string(Cache.Misses) + " misses");
  R.metric("service.cache_contended", static_cast<double>(Cache.Contended), "count");
  R.metric("service.cache_evictions", static_cast<double>(Cache.Evictions), "count");
  R.metric("service.rejected", static_cast<double>(Sum.Rejected), "count");
  R.metric("service.timeouts", static_cast<double>(Sum.TimedOut), "count");
  static const char *KindNames[] = {"steady", "transient", "faults"};
  for (int K = 0; K != 3; ++K)
    R.percentile(std::string("service.latency_p90_ms.") + KindNames[K],
                 nearestRank(Fixed[1].latencyMs(S.Fixed[1], K), 0.90), "ms",
                 false);
  if (!Opts.Trace)
    return;

  // Traced pass over the three fixed rates: per-layer self time and the
  // cost of tracing (service busy time per request, traced vs untraced).
  double UntracedBusy = 0.0, Requests = 0.0;
  for (const PhaseOutcome &P : Fixed) {
    UntracedBusy += P.BatchBusyS;
    Requests += static_cast<double>(P.Records.size());
  }
  TraceSession Trace({});
  CounterSnapshot TBefore = snapshotCounters();
  double TracedBusy = 0.0;
  uint64_t TracedFailures = 0;
  for (const ServePhase &Phase : S.Fixed) {
    PhaseOutcome P = runPhase(*S.Svc, Phase, true);
    TracedBusy += P.BatchBusyS;
    TracedFailures += P.failures();
  }
  CounterSnapshot TAfter = snapshotCounters();
  const uint64_t Spans = Trace.spanCount();
  telemetry::ProfileReport Profile = Trace.finish();
  R.tally(static_cast<uint64_t>(Requests), TracedFailures,
          "traced fixed-rate requests answered ok");
  emitCounterMetrics(R, TBefore, TAfter);
  emitTraceMetrics(R, Profile, Spans, Requests, Requests / UntracedBusy,
                   Requests / TracedBusy);
}
