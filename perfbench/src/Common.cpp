//===- perfbench/src/Common.cpp - Shared benchmark machinery --------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>

using namespace rcs;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// Inputs and statistics
//===----------------------------------------------------------------------===//

namespace {

/// SplitMix64 finalizer: a bijective mix of all 64 bits.
uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

} // namespace

// Seed and stream are mixed before they seed the sequence; a plain linear
// combination would make seed N+1 replay seed N's draws shifted by one.
Rng::Rng(uint64_t Seed, uint64_t Stream)
    : State(mix64(mix64(Seed) + Stream * 0xD1B54A32D192ED03ULL)) {}

uint64_t Rng::next() { return mix64(State += 0x9E3779B97F4A7C15ULL); }

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int Rng::below(int N) {
  return static_cast<int>(next() % static_cast<uint64_t>(N));
}

double Rng::exponential(double RatePerS) {
  return -std::log1p(-uniform()) / RatePerS;
}

Percentile perfbench::nearestRank(std::vector<double> Samples, double Q) {
  Percentile P;
  P.Samples = Samples.size();
  if (Samples.empty())
    return P;
  std::sort(Samples.begin(), Samples.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Samples.size()) - 1e-9));
  Rank = std::clamp<size_t>(Rank, 1, Samples.size());
  P.Value = Samples[Rank - 1];
  P.Beyond = Samples.size() - Rank;
  P.Reportable = P.Beyond >= 10;
  return P;
}

double perfbench::median(std::vector<double> Samples) {
  return nearestRank(std::move(Samples), 0.5).Value;
}

double perfbench::peakRssMb() {
  // VmHWM belongs to this address space; getrusage's ru_maxrss would also
  // count the parent that exec'd us, which Linux carries across execve.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB.
  return 0.0;
}

namespace {

constexpr size_t Windows = 10;

/// Consecutive slices of \p Samples made of whole groups of \p Group,
/// Windows of them when there are enough; a trailing partial group is
/// left out.
std::vector<std::vector<double>> windows(const std::vector<double> &Samples,
                                         size_t Group) {
  const size_t Groups = Samples.size() / Group;
  const size_t N = std::min(Windows, std::max<size_t>(Groups, 1));
  std::vector<std::vector<double>> Out(N);
  for (size_t I = 0; I != Groups * Group; ++I)
    Out[I / Group * N / Groups].push_back(Samples[I]);
  return Out;
}

} // namespace

Percentile perfbench::windowedPercentile(const std::vector<double> &Samples,
                                         double Q, size_t Group) {
  Percentile P;
  P.Samples = Samples.size();
  if (Samples.size() < Group)
    return P;
  std::vector<double> Values;
  P.Beyond = Samples.size();
  P.Reportable = true;
  for (const std::vector<double> &W : windows(Samples, Group)) {
    Percentile WP = nearestRank(W, Q);
    Values.push_back(WP.Value);
    P.Beyond = std::min(P.Beyond, WP.Beyond);
    P.Reportable = P.Reportable && WP.Reportable;
  }
  P.Value = median(Values);
  return P;
}

double perfbench::windowedRate(const std::vector<double> &OpMs, size_t Group) {
  std::vector<double> Rates;
  for (const std::vector<double> &W : windows(OpMs, Group)) {
    double Ms = 0.0;
    for (double X : W)
      Ms += X;
    if (Ms > 0.0)
      Rates.push_back(static_cast<double>(W.size()) / Ms * 1e3);
  }
  return median(Rates);
}

void perfbench::emitOpPercentiles(Result &R, const std::vector<double> &OpMs,
                                  size_t Group) {
  std::string Windowed;
  for (const std::vector<double> &W : windows(OpMs, Group))
    Windowed += std::to_string(nearestRank(W, 0.50).Value) + "/" +
                std::to_string(nearestRank(W, 0.90).Value) + " ";
  R.context("op_p50/p90_ms_per_window", Windowed);
  R.percentile("op_p50_ms", windowedPercentile(OpMs, 0.50, Group), "ms", true);
  R.percentile("op_p90_ms", windowedPercentile(OpMs, 0.90, Group), "ms", true);
  R.percentile("op_p99_ms", nearestRank(OpMs, 0.99), "ms", true);
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

namespace {

std::string jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  return Buf;
}

} // namespace

Result::Result(const Options &Opts) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              Opts.Trace ? 1 : 0);
}

void Result::context(const std::string &Key, const std::string &Value) {
  std::printf("context %-28s %s\n", Key.c_str(), Value.c_str());
}

void Result::context(const std::string &Key, double Value) {
  std::printf("context %-28s %.6g\n", Key.c_str(), Value);
}

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit, const std::string &Note) {
  std::printf("metric  %-34s %14.6g %-9s %s\n", Name.c_str(), Value,
              Unit.c_str(), Note.c_str());
  Metrics[Name] = Entry{Value, Unit};
}

void Result::percentile(const std::string &Name, const Percentile &P,
                        const std::string &Unit, bool Required) {
  std::string Note = "n=" + std::to_string(P.Samples) +
                     " beyond=" + std::to_string(P.Beyond);
  if (!P.Reportable) {
    Note += " (fewer than 10 samples beyond: not reportable)";
    if (Required)
      check(false, Name + " needs at least 10 samples beyond its rank");
    metric(Name, 0.0, Unit, Note);
    return;
  }
  metric(Name, P.Value, Unit, Note);
}

void Result::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::printf("FAILED  %s\n", What.c_str());
  }
}

void Result::tally(uint64_t N, uint64_t NFailed, const std::string &What) {
  Attempted += N;
  Failed += NFailed;
  std::printf("checked %-34s %llu of %llu failed\n", What.c_str(),
              static_cast<unsigned long long>(NFailed),
              static_cast<unsigned long long>(N));
}

int Result::finish() {
  const double FailedFrac =
      Attempted ? static_cast<double>(Failed) / static_cast<double>(Attempted)
                : 1.0;
  metric("failed_frac", FailedFrac, "fraction",
         std::to_string(Failed) + " of " + std::to_string(Attempted));

  const bool Correct = Failed == 0 && Attempted != 0;
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(Attempted, 1));
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, E] : Metrics) {
    if (!First)
      Json += ", ";
    First = false;
    Json += "\"" + Name + "\": {\"value\": " + jsonNumber(E.Value) +
            ", \"unit\": \"" + E.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Set-up timing
//===----------------------------------------------------------------------===//

SetupTimer::SetupTimer(std::function<void()> Fn, double RunSeconds)
    : Fn(std::move(Fn)),
      Period(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(RunSeconds / (Total - Before)))) {}

void SetupTimer::once() {
  Clock::time_point Start = Clock::now();
  Fn();
  Samples.push_back(secondsBetween(Start, Clock::now()));
}

void SetupTimer::between() {
  const Clock::time_point Now = Clock::now();
  if (!NextDue) {
    // The first call opens the measured phase.
    NextDue = Now + Period / 2;
    return;
  }
  for (; *NextDue <= Now && Samples.size() < Total; *NextDue += Period)
    once();
}

void SetupTimer::report(Result &R) const {
  std::string Each;
  for (double S : Samples)
    Each += std::to_string(S) + " ";
  R.context("setup_s_each", Each);
  R.metric("setup_s", median(Samples), "s",
           "median of " + std::to_string(Samples.size()) +
               " set-ups spread over the run");
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

CounterSnapshot perfbench::snapshotCounters() {
  CounterSnapshot Out;
  for (auto &[Name, Value] :
       telemetry::Registry::global().snapshotMetrics().Counters)
    Out[Name] = Value;
  return Out;
}

uint64_t perfbench::counterDelta(const CounterSnapshot &Before,
                                 const CounterSnapshot &After,
                                 const std::string &Name) {
  auto A = After.find(Name);
  if (A == After.end())
    return 0;
  auto B = Before.find(Name);
  return A->second - (B == Before.end() ? 0 : B->second);
}

//===----------------------------------------------------------------------===//
// Trace session
//===----------------------------------------------------------------------===//

struct TraceSession::State {
  telemetry::Profiler Profiler;
  std::set<std::string, std::less<>> RawNames;
  std::mutex Mu;
  int Leg = 0;
  std::map<std::pair<std::string, int>, std::vector<double>> Raw;
  uint64_t Spans = 0;
};

namespace {

/// Forwards every span to the profiler and keeps raw durations of the
/// watched names. The state outlives the sink: TraceSession detaches the
/// sink before destroying it.
class CollectSink final : public telemetry::EventSink {
public:
  explicit CollectSink(TraceSession::State &S) : S(S) {}
  void instant(double TimeS, std::string_view Name,
               const telemetry::EventField *Fields,
               size_t NumFields) override {
    S.Profiler.instant(TimeS, Name, Fields, NumFields);
  }
  void span(const telemetry::SpanRecord &Rec) override {
    S.Profiler.span(Rec);
    std::lock_guard<std::mutex> Lock(S.Mu);
    ++S.Spans;
    if (S.RawNames.count(Rec.Name))
      S.Raw[{std::string(Rec.Name), S.Leg}].push_back(Rec.DurationS);
  }
  rcs::Status close() override { return rcs::Status::ok(); }

private:
  TraceSession::State &S;
};

} // namespace

TraceSession::TraceSession(std::vector<std::string> RawNames)
    : S(std::make_unique<State>()) {
  S->RawNames.insert(RawNames.begin(), RawNames.end());
  telemetry::Registry::global().setSink(std::make_unique<CollectSink>(*S));
}

TraceSession::~TraceSession() {
  if (Attached)
    (void)telemetry::Registry::global().closeSink();
}

void TraceSession::setLeg(int Leg) {
  std::lock_guard<std::mutex> Lock(S->Mu);
  S->Leg = Leg;
}

std::vector<double> TraceSession::durations(const std::string &Name,
                                            int Leg) const {
  std::lock_guard<std::mutex> Lock(S->Mu);
  auto It = S->Raw.find({Name, Leg});
  return It == S->Raw.end() ? std::vector<double>() : It->second;
}

uint64_t TraceSession::spanCount() const {
  std::lock_guard<std::mutex> Lock(S->Mu);
  return S->Spans;
}

telemetry::ProfileReport TraceSession::finish() {
  if (Attached) {
    (void)telemetry::Registry::global().closeSink();
    Attached = false;
  }
  return S->Profiler.report();
}

namespace {

constexpr std::string_view BenchPrefix = "bench.";

std::string layerOf(std::string_view Name) {
  if (Name == "sim.transient.properties" ||
      Name == "sim.rack_transient.properties")
    return "fluids";
  if (Name == "sim.transient.control")
    return "monitor";
  if (Name.substr(0, BenchPrefix.size()) == BenchPrefix)
    Name.remove_prefix(BenchPrefix.size());
  return std::string(Name.substr(0, Name.find('.')));
}

template <typename FnT>
void walk(const std::vector<telemetry::ProfileNode> &Nodes, FnT &&Fn,
          bool UnderBench) {
  for (const telemetry::ProfileNode &Node : Nodes) {
    Fn(Node, UnderBench);
    walk(Node.Children, Fn,
         UnderBench || Node.Name.rfind(BenchPrefix, 0) == 0);
  }
}

} // namespace

std::map<std::string, double>
perfbench::layerSelfSeconds(const telemetry::ProfileReport &Report) {
  std::map<std::string, double> Out;
  walk(
      Report.Roots,
      [&](const telemetry::ProfileNode &Node, bool) {
        Out[layerOf(Node.Name)] += Node.SelfS;
      },
      false);
  return Out;
}

double perfbench::spanSelfSeconds(const telemetry::ProfileReport &Report,
                                  std::string_view Name) {
  double Sum = 0.0;
  walk(
      Report.Roots,
      [&](const telemetry::ProfileNode &Node, bool) {
        if (Node.Name == Name)
          Sum += Node.SelfS;
      },
      false);
  return Sum;
}

void perfbench::benchSpanSeconds(const telemetry::ProfileReport &Report,
                                 double &SelfS, double &TotalS) {
  SelfS = 0.0;
  TotalS = 0.0;
  walk(
      Report.Roots,
      [&](const telemetry::ProfileNode &Node, bool UnderBench) {
        if (Node.Name.rfind(BenchPrefix, 0) != 0)
          return;
        SelfS += Node.SelfS;
        if (!UnderBench)
          TotalS += Node.TotalS;
      },
      false);
}

void perfbench::emitTraceMetrics(Result &R,
                                 const telemetry::ProfileReport &Profile,
                                 uint64_t Spans, double Ops,
                                 double UntracedRate, double TracedRate) {
  std::map<std::string, double> Self = layerSelfSeconds(Profile);
  double AllSelf = 0.0;
  for (const auto &[Layer, S] : Self)
    AllSelf += S;
  for (const char *Layer : {"faults", "sim", "fluids", "monitor", "thermal",
                            "hydraulics", "system", "core", "service"}) {
    double Frac = AllSelf > 0.0 ? Self[Layer] / AllSelf : 0.0;
    R.metric(std::string(Layer) + ".self_frac", Frac, "fraction");
  }
  R.metric("hydraulics.residual_self_frac",
           AllSelf > 0.0
               ? spanSelfSeconds(Profile, "hydraulics.newton.residual") /
                     AllSelf
               : 0.0,
           "fraction");
  double BenchSelf = 0.0, BenchTotal = 0.0;
  benchSpanSeconds(Profile, BenchSelf, BenchTotal);
  R.metric("telemetry.unattributed_frac",
           BenchTotal > 0.0 ? BenchSelf / BenchTotal : 0.0, "fraction",
           "time inside benchmark calls that no program span covers");
  R.metric("telemetry.spans_per_op", Ops > 0.0 ? Spans / Ops : 0.0, "count");
  R.metric("telemetry.trace_overhead",
           TracedRate > 0.0 ? UntracedRate / TracedRate - 1.0 : 0.0,
           "fraction", "untraced rate / traced rate - 1");
}

void perfbench::emitCounterMetrics(Result &R, const CounterSnapshot &Before,
                                   const CounterSnapshot &After) {
  auto D = [&](const char *Name) {
    return static_cast<double>(counterDelta(Before, After, Name));
  };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };

  const double Factorizations = D("thermal.network.factorizations");
  const double Reuses = D("thermal.network.factor_reuses");
  R.metric("thermal.factorizations", Factorizations, "count");
  R.metric("thermal.factor_reuses", Reuses, "count");
  R.metric("thermal.reuse_frac", Ratio(Reuses, Reuses + Factorizations),
           "fraction");
  R.metric("thermal.symbolic_analyses", D("thermal.network.sparse_symbolic"),
           "count");
  R.metric("thermal.sparse_solves", D("thermal.network.sparse_solves"),
           "count");

  const double Solves = D("hydraulics.flow.solves");
  R.metric("hydraulics.solves", Solves, "count");
  R.metric("hydraulics.newton_iterations", D("hydraulics.newton.iterations"),
           "count");
  R.metric("hydraulics.iterations_per_solve",
           Ratio(D("hydraulics.newton.iterations"), Solves), "count");
  R.metric("hydraulics.edge_inversions",
           D("hydraulics.edge_inversion.searches"), "count");
  R.metric("hydraulics.inversions_per_solve",
           Ratio(D("hydraulics.edge_inversion.searches"), Solves), "count");
  R.metric("hydraulics.analytic_fallbacks",
           D("hydraulics.newton.analytic_fallbacks"), "count");
  R.metric("hydraulics.failures", D("hydraulics.flow.failures"), "count");

  R.metric("sim.steps",
           D("sim.transient.steps") + D("sim.rack_transient.steps"), "count");
  R.metric("faults.scenario_runs", D("faults.scenario.runs"), "count");
}
