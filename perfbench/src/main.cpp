//===- perfbench/src/main.cpp - End-to-end benchmark entry point ----------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload sweep|serve|fleet|design --seed N --seconds S
//           --trace 0|1 --workdir DIR [--commit ID]
//
// Prints a human-readable report and, as its last line, one JSON object
// with every metric the run measured. perfbench/run.py builds this binary
// and narrows that line to the metrics BENCHMARK.json names.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sweep|serve|fleet|design --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--commit ID]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  std::string Commit = "unknown";
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I];
    const char *Value = Argv[I + 1];
    char *End = nullptr;
    if (!std::strcmp(Flag, "--workload"))
      Opts.Workload = Value;
    else if (!std::strcmp(Flag, "--seed"))
      Opts.Seed = std::strtoull(Value, &End, 10);
    else if (!std::strcmp(Flag, "--seconds"))
      Opts.Seconds = std::strtod(Value, &End);
    else if (!std::strcmp(Flag, "--trace"))
      Opts.Trace = std::strcmp(Value, "0") != 0;
    else if (!std::strcmp(Flag, "--workdir"))
      Opts.WorkDir = Value;
    else if (!std::strcmp(Flag, "--commit"))
      Commit = Value;
    else
      return usage();
    if (End && *End)
      return usage();
  }
  if (Argc % 2 != 1 || Opts.Workload.empty() || Opts.WorkDir.empty() ||
      !(Opts.Seconds > 0.0))
    return usage();
  Opts.Nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (Opts.Nproc < 1)
    Opts.Nproc = 1;

  Result R(Opts);
  R.context("nproc", Opts.Nproc);
  R.context("build_type", PERFBENCH_BUILD_TYPE);
  R.context("commit", Commit);
  if (Opts.Workload == "sweep")
    runSweepWorkload(Opts, R);
  else if (Opts.Workload == "serve")
    runServeWorkload(Opts, R);
  else if (Opts.Workload == "fleet")
    runFleetWorkload(Opts, R);
  else if (Opts.Workload == "design")
    runDesignWorkload(Opts, R);
  else
    return usage();
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  return R.finish();
}
