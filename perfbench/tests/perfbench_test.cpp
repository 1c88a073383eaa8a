//===- perfbench/tests/perfbench_test.cpp - Benchmark self-tests ----------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tests of the benchmark itself: generated inputs are a pure function of
// the seed, nearest-rank percentiles match a sorted reference, windows
// hold whole mixes, and a wrong output is counted as a failure.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Inputs.h"
#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What) {
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What);
  }
}

std::string allInputs(uint64_t Seed) {
  std::vector<std::string> Paths = {"a.json", "b.json"};
  std::string Out = sweepRackScenario(Seed);
  for (const std::string &S : sweepModuleScenarios(Seed))
    (Out += '\n') += S;
  for (const std::string &S : serveScenarios(Seed))
    (Out += '\n') += S;
  (Out += '\n') += renderPhase(servePhase(Seed, 0, "light", 150.0, 200, Paths));
  Out += renderPhase(servePhase(Seed, 3, "ladder", 600.0, 200, Paths));
  Out += renderFleetEdits(Seed, 300);
  Out += renderDesignPoints(designPoints(Seed));
  return Out;
}

void testInputsAreAFunctionOfTheSeed() {
  expect(allInputs(7) == allInputs(7), "same seed gives identical inputs");
  expect(allInputs(7) != allInputs(8), "another seed changes the inputs");
  expect(sweepModuleScenarios(7) != sweepModuleScenarios(8) &&
             sweepRackScenario(7) != sweepRackScenario(8),
         "another seed changes each scenario");
  expect(renderDesignPoints(designPoints(7)) !=
             renderDesignPoints(designPoints(8)),
         "another seed changes the design points");
  // The amount of work does not depend on the seed.
  expect(designPoints(7).size() == designPoints(8).size() &&
             servePhase(7, 1, "busy", 300.0, 500, {"a"}).Requests.size() ==
                 servePhase(8, 1, "busy", 300.0, 500, {"a"}).Requests.size(),
         "input sizes are seed independent");
}

void testNearestRankMatchesSortedReference() {
  Rng G(42, 0);
  for (int N : {1, 5, 19, 20, 100, 101, 999, 1000, 1001}) {
    std::vector<double> Samples;
    for (int I = 0; I != N; ++I)
      Samples.push_back(std::floor(G.uniform(0.0, 50.0)));
    std::vector<double> Sorted = Samples;
    std::sort(Sorted.begin(), Sorted.end());
    for (double Q : {0.5, 0.9, 0.99}) {
      size_t Rank = 1;
      while (static_cast<double>(Rank) < Q * N)
        ++Rank;
      Percentile P = nearestRank(Samples, Q);
      expect(P.Value == Sorted[Rank - 1], "nearest rank value");
      expect(P.Value >= Sorted.front() && P.Value <= Sorted.back(),
             "percentile within [min, max]");
      expect(P.Samples == static_cast<size_t>(N) &&
                 P.Beyond == static_cast<size_t>(N) - Rank,
             "sample counts");
      expect(P.Reportable == (static_cast<size_t>(N) - Rank >= 10),
             "reportable only with ten samples beyond");
    }
  }
  expect(!nearestRank({}, 0.5).Reportable, "empty input is not reportable");
  expect(nearestRank(std::vector<double>(1000, 1.0), 0.99).Reportable &&
             !nearestRank(std::vector<double>(999, 1.0), 0.99).Reportable,
         "p99 needs 1000 samples");
}

void testWindowsHoldWholeMixes() {
  // 27 campaigns of 47 short and 5 long operations. Windows of whole
  // campaigns put their p90 on a short one; windows cut every 140
  // operations would put most of theirs on a long one.
  std::vector<double> Ms;
  for (int C = 0; C != 27; ++C) {
    Ms.insert(Ms.end(), 47, 1.0);
    Ms.insert(Ms.end(), 5, 10.0);
  }
  Percentile P = windowedPercentile(Ms, 0.90, 52);
  expect(P.Value == 1.0 && P.Reportable && P.Samples == Ms.size(),
         "a windowed p90 over whole mixes stays in the short class");
  expect(windowedRate(Ms, 52) == 52.0 / (47.0 + 50.0) * 1e3,
         "a windowed rate over whole mixes is the mix's rate");
  expect(!windowedPercentile(std::vector<double>(51, 1.0), 0.5, 52).Reportable,
         "less than one whole mix is not reportable");
  for (size_t Group : {1, 4, 6, 52, 96}) {
    std::vector<double> Enough(minSamples(Group), 1.0);
    expect(windowedPercentile(Enough, 0.90, Group).Reportable &&
               nearestRank(Enough, 0.99).Reportable,
           "minSamples operations make every op percentile reportable");
  }
}

void testWrongOutputsAreCounted() {
  Options Opts;
  Opts.Workload = "self-test";
  Result Clean(Opts);
  Clean.check(true, "a correct output");
  expect(Clean.finish() == 0, "a run with only correct outputs passes");

  Result Wrong(Opts);
  Wrong.check(true, "a correct output");
  Wrong.check(false, "a deliberately wrong output");
  expect(Wrong.finish() != 0, "a wrong output fails the run");

  rcs::faults::SweepReport A;
  A.JunctionHistogramCounts.assign(24, 3);
  A.Replicates.resize(4);
  rcs::faults::SweepReport B = A;
  expect(sameSweepReport(A, B), "identical sweep reports compare equal");
  B.JunctionHistogramCounts[5] += 1;
  expect(!sameSweepReport(A, B), "a histogram difference is caught");
  B = A;
  B.Replicates[2].MaxJunctionC += 1e-12;
  expect(!sameSweepReport(A, B), "a replicate difference is caught");

  std::string Id;
  bool Ok = true;
  expect(parseResponseLine("{\"kind\": \"service_response\", \"id\": \"p1-7\", "
                           "\"ok\": false, \"error_kind\": \"evaluation\"}",
                           Id, Ok) &&
             Id == "p1-7" && !Ok,
         "an error response parses as not ok");
  expect(!parseResponseLine("{\"kind\": \"service_summary\"}", Id, Ok),
         "a non-response line is rejected");
}

void testFleetCheckCatchesAWrongSteadyState() {
  rcs::thermal::FleetConfig Config = fleetConfig();
  Config.NumRacks = 4;
  rcs::thermal::FleetNetwork F = rcs::thermal::buildFleetNetwork(Config);
  auto Steady = F.Net.solveSteadyState();
  expect(static_cast<bool>(Steady), "the small fleet solves");
  if (!Steady)
    return;
  double Residual = 0.0, Pickup = 0.0;
  expect(fleetSteadyCloses(F, *Steady, Residual, Pickup),
         "the solved steady state passes the fleet check");
  std::vector<double> Wrong = *Steady;
  Wrong[F.Chips[1]] += 0.5;
  expect(!fleetSteadyCloses(F, Wrong, Residual, Pickup) &&
             Residual > FleetSteadyTolerance,
         "a chip 0.5 K off its steady temperature fails the fleet check");
}

} // namespace

int main() {
  // Result prints its report on stdout; only failures matter here.
  if (!std::freopen("/dev/null", "w", stdout))
    return 1;
  testInputsAreAFunctionOfTheSeed();
  testNearestRankMatchesSortedReference();
  testWindowsHoldWholeMixes();
  testWrongOutputsAreCounted();
  testFleetCheckCatchesAWrongSteadyState();
  std::fprintf(stderr, "perfbench_test: %d failure(s)\n", Failures);
  return Failures == 0 ? 0 : 1;
}
