//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload sets up from the seed, measures an untraced pass for the
/// end-to-end metrics, and on a traced run adds a traced pass of the same
/// work for the per-layer metrics. Output checks run outside the clock.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

#include "faults/Sweep.h"
#include "thermal/Fleet.h"

namespace perfbench {

void runSweepWorkload(const Options &Opts, Result &R);
void runServeWorkload(const Options &Opts, Result &R);
void runFleetWorkload(const Options &Opts, Result &R);
void runDesignWorkload(const Options &Opts, Result &R);

/// Field-by-field equality of two sweep reports, histogram included.
bool sameSweepReport(const rcs::faults::SweepReport &A,
                     const rcs::faults::SweepReport &B);

/// Largest steady residual and facility-pickup error the fleet accepts,
/// as a share of total source power.
inline constexpr double FleetSteadyTolerance = 1e-6;

/// The fleet's steady-state check: the node balance closes and the
/// facility picks up all the source heat, each within FleetSteadyTolerance.
/// \p Residual and \p Pickup receive the two errors.
bool fleetSteadyCloses(const rcs::thermal::FleetNetwork &F,
                       const std::vector<double> &Steady, double &Residual,
                       double &Pickup);

/// Looks up the request id and ok flag in one rendered service response
/// line; false when the line is not a well-formed response.
bool parseResponseLine(const std::string &Line, std::string &Id, bool &Ok);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
