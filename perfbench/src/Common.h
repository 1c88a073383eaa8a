//===- perfbench/src/Common.h - Shared benchmark machinery ------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the seeded
/// input generator, nearest-rank statistics over raw samples, the result
/// record (context, metrics, output checks, the closing JSON line) and
/// the trace harness that turns the program's own spans and counters
/// into per-layer figures.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "telemetry/Profile.h"
#include "telemetry/Span.h"
#include "telemetry/Telemetry.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

namespace telemetry = rcs::telemetry;

/// Command-line options every workload receives.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Hardware threads; threads and workers never exceed it.
  int Nproc = 1;
  /// Directory for generated input files (inside the checkout).
  std::string WorkDir;
};

/// SplitMix64 stream owned by the benchmark, so generated inputs depend
/// only on the seed and never on the program's own random engine.
class Rng {
public:
  Rng(uint64_t Seed, uint64_t Stream);
  uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  double uniform(double Lo, double Hi) { return Lo + (Hi - Lo) * uniform(); }
  /// Uniform integer in [0, N).
  int below(int N);
  /// Exponential inter-arrival time at \p RatePerS.
  double exponential(double RatePerS);

private:
  uint64_t State;
};

/// A percentile computed by nearest rank from raw samples.
struct Percentile {
  double Value = 0.0;
  size_t Samples = 0;
  /// Samples strictly above the rank that gave Value.
  size_t Beyond = 0;
  /// True when at least ten samples lie beyond the rank.
  bool Reportable = false;
};

/// Nearest-rank percentile \p Q in (0, 1]: the ceil(Q * N)-th smallest
/// sample. Empty input gives an unreportable zero.
Percentile nearestRank(std::vector<double> Samples, double Q);

/// Samples a p99 needs for ten of them to lie beyond it. Timed loops run
/// until they have this many, however long that takes.
inline constexpr size_t MinSamples = 1000;

/// Nearest-rank median, for medians of repeated measurements.
double median(std::vector<double> Samples);

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Peak resident set of this process, MB.
double peakRssMb();

/// One run's report: context lines, metrics and output checks. Prints a
/// human-readable report as it goes and the JSON result line at the end.
class Result {
public:
  explicit Result(const Options &Opts);

  void context(const std::string &Key, const std::string &Value);
  void context(const std::string &Key, double Value);

  /// Records metric \p Name. perfbench/run.py checks every name and unit
  /// against BENCHMARK.json.
  void metric(const std::string &Name, double Value, const std::string &Unit,
              const std::string &Note = "");

  /// Records a percentile with its sample count. An end-to-end
  /// percentile that is not reportable is a failed check; a per-layer one
  /// is reported as 0 with its count.
  void percentile(const std::string &Name, const Percentile &P,
                  const std::string &Unit, bool Required);

  /// One checked operation: \p Ok false counts as a failure.
  void check(bool Ok, const std::string &What);
  /// Many checked operations at once (\p Failed of \p Attempted).
  void tally(uint64_t Attempted, uint64_t Failed, const std::string &What);

  /// Prints the JSON result line and returns the process exit code.
  int finish();

private:
  struct Entry {
    double Value;
    std::string Unit;
  };
  std::map<std::string, Entry> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Counter values by name, from Registry::snapshotMetrics().
using CounterSnapshot = std::map<std::string, uint64_t>;
CounterSnapshot snapshotCounters();
uint64_t counterDelta(const CounterSnapshot &Before,
                      const CounterSnapshot &After, const std::string &Name);

/// Attaches telemetry::Profiler (plus a raw-duration collector for a few
/// span names) to the global registry for its lifetime.
class TraceSession {
public:
  /// \p RawNames are the span names whose individual durations are kept.
  explicit TraceSession(std::vector<std::string> RawNames);
  ~TraceSession();
  TraceSession(const TraceSession &) = delete;
  TraceSession &operator=(const TraceSession &) = delete;

  /// Tags subsequently recorded raw durations (e.g. the sweep leg).
  void setLeg(int Leg);
  /// Durations in seconds of spans named \p Name recorded under \p Leg.
  std::vector<double> durations(const std::string &Name, int Leg) const;
  /// Spans seen while attached.
  uint64_t spanCount() const;
  /// Detaches the sink and returns the aggregated call tree.
  telemetry::ProfileReport finish();

  struct State;

private:
  std::unique_ptr<State> S;
  bool Attached = true;
};

/// Self time per layer from a profile. A benchmark-owned span
/// ("bench.<layer>.<call>") counts toward the layer it calls into; the
/// fluids property and monitor control spans of the sim step loop count
/// toward fluids and monitor.
std::map<std::string, double> layerSelfSeconds(
    const telemetry::ProfileReport &Report);
/// Summed self time of every node named \p Name.
double spanSelfSeconds(const telemetry::ProfileReport &Report,
                       std::string_view Name);
/// Summed self time of the benchmark-owned spans (time inside the
/// benchmark's calls that no program span covers) and their total time.
void benchSpanSeconds(const telemetry::ProfileReport &Report, double &SelfS,
                      double &TotalS);

/// A benchmark-owned span around one call into a layer; a no-op unless
/// tracing, so untraced runs pay nothing for it.
class BenchSpan {
public:
  BenchSpan(bool On, std::string_view Name) {
    if (On)
      S.emplace(rcs::telemetry::Registry::global(), Name);
  }

private:
  std::optional<rcs::telemetry::Span> S;
};

/// Emits the per-layer metrics every traced run derives the same way:
/// layer self fractions, tracing overhead, unattributed share, spans per
/// operation. \p UntracedRate and \p TracedRate are operations per second
/// of the same work without and with the trace attached.
void emitTraceMetrics(Result &R, const telemetry::ProfileReport &Profile,
                      uint64_t Spans, double Ops, double UntracedRate,
                      double TracedRate);

/// Emits the counter-delta metrics shared by all workloads (thermal,
/// hydraulics, sim, faults) from two counter snapshots.
void emitCounterMetrics(Result &R, const CounterSnapshot &Before,
                        const CounterSnapshot &After);

/// Median, over ten consecutive windows of \p Samples (in time order), of
/// each window's nearest-rank percentile \p Q, so a host stall that slows
/// one window does not move the figure. Windows hold whole groups of
/// \p Group samples: a workload whose operations repeat a fixed mix (a
/// campaign's replicates, a cycle of evaluations) passes the mix's length,
/// so every window holds the same mix and a percentile near the edge of
/// a class of operations stays on the same side of it. Samples counts them
/// all; Beyond is the smallest count beyond the rank in any window.
Percentile windowedPercentile(const std::vector<double> &Samples, double Q,
                              size_t Group);

/// Median over ten consecutive windows of operations per second, from
/// per-operation times in ms.
double windowedRate(const std::vector<double> &OpMs, size_t Group);

/// Operations a timed loop needs for a pooled p99 (MinSamples) and for a
/// p90 in each of ten windows of whole \p Group-long mixes (100 a window).
inline size_t minSamples(size_t Group) {
  const size_t PerWindow = (100 + Group - 1) / Group * Group;
  return MinSamples > 10 * PerWindow ? MinSamples : 10 * PerWindow;
}

/// Reports op_p50_ms and op_p90_ms (end-to-end, windowed) and op_p99_ms
/// (per-layer, pooled) from per-operation times in ms, in time order.
/// Timed loops hold at least minSamples(Group) operations, so all are
/// reportable.
void emitOpPercentiles(Result &R, const std::vector<double> &OpMs,
                       size_t Group);

/// Times the run's set-ups for setup_s, their median. A few are taken
/// before the measured phase; the rest at operation boundaries the
/// workload picks, spread evenly over the measured phase. Each rebuilds the
/// run's products in place; they are identical every time. The host's
/// speed drifts over seconds, so set-ups spread over the run see the same
/// host as the operations measured beside them, where set-ups taken back
/// to back at the start would all see the host of one moment.
class SetupTimer {
public:
  /// \p Fn runs one complete set-up; \p RunSeconds is the length of the
  /// measured phase.
  SetupTimer(std::function<void()> Fn, double RunSeconds);

  /// Times one set-up now.
  void once();
  /// Times the set-ups that have come due since the last call; call it
  /// between operations of the measured phase.
  void between();
  /// Reports setup_s.
  void report(Result &R) const;

  /// Set-ups per run: taken before the measured phase, and in all.
  static constexpr size_t Before = 5;
  static constexpr size_t Total = 25;

private:
  std::function<void()> Fn;
  Clock::duration Period;
  std::optional<Clock::time_point> NextDue;
  std::vector<double> Samples;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
